//! `gae-durable` — write-ahead-log + snapshot persistence for the GAE
//! services (paper §4 "Backup & Recovery", §5 job repository).
//!
//! Everything in-memory in `gae-core`/`gae-monitor` dies with the
//! process; this crate provides the durable substrate: an append-only,
//! CRC-32-checksummed, length-prefixed WAL with group-commit batching
//! ([`DurableStore::commit`]), periodic compacting snapshots
//! ([`DurableStore::rotate`]), and a deterministic, read-only recovery
//! path ([`DurableStore::replay`], streamed to the caller one commit
//! batch at a time; [`DurableStore::recover`] collects it) that always
//! lands on a prefix-consistent committed state — even with torn
//! tails, bit flips, or duplicated segments injected by [`fault`].
//!
//! Built on `std::fs` only, consistent with the workspace's offline
//! shim policy. The service-level wiring (what gets logged, how state
//! is rebuilt) lives in `gae-core::persist`.

#![warn(missing_docs)]

pub mod crc32;
pub mod fault;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use fault::Corruption;
pub use snapshot::SnapshotWriter;
pub use store::{DurableStore, Recovered, RecoveryPoint, StoreStats};
pub use wal::TailState;

#[cfg(test)]
mod prop_tests {
    use crate::fault::{self, Corruption};
    use crate::store::DurableStore;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Recovery of a corrupted store always yields an exact prefix
        /// of the committed record stream, ending at a commit point.
        #[test]
        fn recovery_is_prefix_consistent(
            batches in prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 1..8),
            rotate_after in any::<prop::sample::Index>(),
            target in any::<prop::sample::Index>(),
            kind in 0u8..3,
            offset in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let dir = fault::unique_temp_dir("prop");
            let mut store = DurableStore::create(&dir, false).unwrap();
            // Committed records per commit point, cumulatively.
            let mut per_commit: Vec<Vec<Vec<u8>>> = vec![Vec::new()];
            let rotate_at = rotate_after.index(batches.len());
            for (i, batch) in batches.iter().enumerate() {
                store.append(batch.clone());
                store.commit().unwrap();
                let mut all = per_commit.last().unwrap().clone();
                all.push(batch.clone());
                per_commit.push(all);
                if i == rotate_at {
                    store.rotate(b"rotation-snapshot").unwrap();
                }
            }
            drop(store);

            let files = fault::store_files(&dir).unwrap();
            let file = &files[target.index(files.len())];
            let len = std::fs::metadata(file).unwrap().len().max(1);
            let corruption = match kind {
                0 => Corruption::TruncateTail { bytes: offset.index(len as usize) as u64 + 1 },
                1 => Corruption::FlipBit { offset: offset.index(len as usize) as u64, bit },
                _ => Corruption::DuplicateTail { bytes: offset.index(len as usize) as u64 + 1 },
            };
            fault::inject(file, &corruption).unwrap();

            let rec = DurableStore::recover(&dir).unwrap();
            let j = rec.commit_index as usize;
            prop_assert!(j < per_commit.len());
            // Reconstruct: snapshot replaces the records up to the
            // rotation point, so compare full streams.
            let mut replayed: Vec<Vec<u8>> = Vec::new();
            if rec.snapshot == b"rotation-snapshot" {
                replayed.extend(per_commit[rotate_at + 1].clone());
            } else {
                prop_assert!(rec.snapshot.is_empty());
            }
            replayed.extend(rec.records.iter().cloned());
            prop_assert_eq!(&replayed, &per_commit[j]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
