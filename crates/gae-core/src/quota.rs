//! The Quota and Accounting Service.
//!
//! The steering Optimizer "contacts the Quota and Accounting Service
//! (currently, just a trivial prototype) to find the cheapest site
//! for job execution" (§4.2.2). We implement the full service: per-
//! site charge rates, per-user balances, cost quotes, and charging on
//! completion.

use crate::persist::{array_of, section, Install, Journal, Machine, MemberWriter, Owns};
use gae_types::{GaeError, GaeResult, SimDuration, SiteDescription, SiteId, UserId};
use gae_wire::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io;

/// One accounting ledger entry.
#[derive(Clone, Debug, PartialEq)]
pub struct ChargeRecord {
    /// Who was charged.
    pub user: UserId,
    /// Where the work ran.
    pub site: SiteId,
    /// CPU time charged for.
    pub cpu_time: SimDuration,
    /// Amount deducted.
    pub amount: f64,
}

/// Per-site rates, per-user balances, and the ledger.
pub struct QuotaService {
    rates: RwLock<HashMap<SiteId, (f64, f64)>>, // (cpu_hour, idle_hour)
    balances: RwLock<HashMap<UserId, f64>>,
    ledger: RwLock<Vec<ChargeRecord>>,
}

impl QuotaService {
    /// An empty service.
    pub fn new() -> Self {
        QuotaService {
            rates: RwLock::new(HashMap::new()),
            balances: RwLock::new(HashMap::new()),
            ledger: RwLock::new(Vec::new()),
        }
    }

    /// Registers a site's charge rates from its description.
    pub fn register_site(&self, site: &SiteDescription) {
        self.rates.write().insert(
            site.id,
            (site.charge_per_cpu_hour, site.charge_per_idle_hour),
        );
    }

    /// Grants a user an allocation (additive).
    pub fn grant(&self, user: UserId, amount: f64) {
        *self.balances.write().entry(user).or_insert(0.0) += amount;
    }

    /// A user's remaining balance (0 if never granted).
    pub fn balance(&self, user: UserId) -> f64 {
        self.balances.read().get(&user).copied().unwrap_or(0.0)
    }

    /// Quote: what would `cpu_time` at `site` cost? This is the
    /// number the Optimizer compares across sites for the *cheap*
    /// preference.
    pub fn quote(&self, site: SiteId, cpu_time: SimDuration) -> GaeResult<f64> {
        let rates = self.rates.read();
        let (cpu_rate, _) = rates
            .get(&site)
            .ok_or_else(|| GaeError::NotFound(format!("rates for {site}")))?;
        Ok(cpu_rate * cpu_time.as_secs_f64() / 3600.0)
    }

    /// Charges a completed run against the owner's balance. Balances
    /// may go negative (grids bill after the fact); the record lands
    /// in the ledger either way.
    pub fn charge(&self, user: UserId, site: SiteId, cpu_time: SimDuration) -> GaeResult<f64> {
        let amount = self.quote(site, cpu_time)?;
        *self.balances.write().entry(user).or_insert(0.0) -= amount;
        self.ledger.write().push(ChargeRecord {
            user,
            site,
            cpu_time,
            amount,
        });
        Ok(amount)
    }

    /// The ledger so far.
    pub fn ledger(&self) -> Vec<ChargeRecord> {
        self.ledger.read().clone()
    }

    /// All balances, user-sorted (deterministic snapshot export).
    pub fn balances_snapshot(&self) -> Vec<(UserId, f64)> {
        let mut out: Vec<(UserId, f64)> =
            self.balances.read().iter().map(|(u, b)| (*u, *b)).collect();
        out.sort_by_key(|(u, _)| *u);
        out
    }

    /// Total charged to one user.
    pub fn total_charged(&self, user: UserId) -> f64 {
        self.ledger
            .read()
            .iter()
            .filter(|c| c.user == user)
            .map(|c| c.amount)
            .sum()
    }
}

impl Default for QuotaService {
    fn default() -> Self {
        Self::new()
    }
}

/// A charge is journaled with its amount, so replay never re-quotes.
impl Journal for ChargeRecord {
    const KINDS: &'static [&'static str] = &["charge"];

    fn encode(&self) -> Value {
        Value::struct_of([
            ("user", Value::from(self.user.raw())),
            ("site", Value::from(self.site.raw())),
            ("cpu_us", Value::from(self.cpu_time.as_micros())),
            ("amount", Value::Double(self.amount)),
        ])
    }

    fn decode(_: &str, v: &Value) -> GaeResult<Self> {
        Ok(ChargeRecord {
            user: UserId::new(v.member("user")?.as_u64()?),
            site: SiteId::new(v.member("site")?.as_u64()?),
            cpu_time: SimDuration::from_micros(v.member("cpu_us")?.as_u64()?),
            amount: v.member("amount")?.as_f64()?,
        })
    }
}

/// Restoring replaces balances and ledger; registered rates are
/// untouched — they derive from the grid topology, not from accounting
/// history.
impl Machine for QuotaService {
    fn owns(&self) -> Owns {
        (ChargeRecord::KINDS, &["balances", "ledger"])
    }

    /// Re-applies a ledger entry verbatim. Unlike [`Self::charge`]
    /// this does not re-quote: the logged amount is deducted
    /// bit-for-bit, so recovery never depends on rate registration
    /// order or floating-point re-derivation.
    fn apply(&self, kind: &str, body: &Value) -> GaeResult<()> {
        let record = ChargeRecord::decode(kind, body)?;
        *self.balances.write().entry(record.user).or_insert(0.0) -= record.amount;
        self.ledger.write().push(record);
        Ok(())
    }

    fn write_member(&self, name: &str, doc: &mut MemberWriter<'_>) -> io::Result<()> {
        if name == "ledger" {
            doc.array(name, self.ledger().iter().map(Journal::encode))
        } else {
            doc.array(name, self.balances_snapshot().iter().map(balance_to_value))
        }
    }

    fn decode<'a>(&'a self, doc: &'a Value) -> GaeResult<Install<'a>> {
        let balances = section(doc, "balances", |v| array_of(v, balance_from_value))?;
        let ledger = section(doc, "ledger", |v| {
            array_of(v, |c| ChargeRecord::decode("charge", c))
        })?;
        Ok(Box::new(move || {
            *self.balances.write() = balances.into_iter().collect();
            *self.ledger.write() = ledger;
            Ok(())
        }))
    }
}

fn balance_from_value(b: &Value) -> GaeResult<(UserId, f64)> {
    Ok((
        UserId::new(b.member("user")?.as_u64()?),
        b.member("amount")?.as_f64()?,
    ))
}

pub(crate) fn balance_to_value((user, amount): &(UserId, f64)) -> Value {
    Value::struct_of([
        ("user", Value::from(user.raw())),
        ("amount", Value::Double(*amount)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_record_roundtrip_is_bit_exact() {
        let c = ChargeRecord {
            user: UserId::new(1),
            site: SiteId::new(2),
            cpu_time: SimDuration::from_secs(12345),
            // Deliberately awkward float: must survive bit-for-bit.
            amount: 0.1 + 0.2,
        };
        let decoded = ChargeRecord::decode(c.kind(), &c.encode()).unwrap();
        assert_eq!(decoded, c);
        assert_eq!(decoded.amount.to_bits(), c.amount.to_bits());
    }

    fn site(id: u64, rate: f64) -> SiteDescription {
        SiteDescription::new(SiteId::new(id), format!("s{id}"), 1, 1).with_charge(rate, 0.1)
    }

    #[test]
    fn quote_uses_site_rate() {
        let q = QuotaService::new();
        q.register_site(&site(1, 7.2));
        // Half an hour at 7.2/h.
        assert!(
            (q.quote(SiteId::new(1), SimDuration::from_secs(1800))
                .unwrap()
                - 3.6)
                .abs()
                < 1e-9
        );
        assert!(q.quote(SiteId::new(9), SimDuration::from_secs(1)).is_err());
    }

    #[test]
    fn grant_and_balance() {
        let q = QuotaService::new();
        assert_eq!(q.balance(UserId::new(1)), 0.0);
        q.grant(UserId::new(1), 100.0);
        q.grant(UserId::new(1), 50.0);
        assert_eq!(q.balance(UserId::new(1)), 150.0);
    }

    #[test]
    fn charging_updates_balance_and_ledger() {
        let q = QuotaService::new();
        q.register_site(&site(1, 2.0));
        let u = UserId::new(1);
        q.grant(u, 10.0);
        let amount = q
            .charge(u, SiteId::new(1), SimDuration::from_secs(3600))
            .unwrap();
        assert_eq!(amount, 2.0);
        assert_eq!(q.balance(u), 8.0);
        assert_eq!(q.ledger().len(), 1);
        assert_eq!(q.total_charged(u), 2.0);
        // Charging an unknown user opens a (negative) account.
        q.charge(UserId::new(2), SiteId::new(1), SimDuration::from_secs(3600))
            .unwrap();
        assert_eq!(q.balance(UserId::new(2)), -2.0);
    }

    #[test]
    fn cheapest_site_comparison() {
        let q = QuotaService::new();
        q.register_site(&site(1, 5.0));
        q.register_site(&site(2, 1.0));
        let t = SimDuration::from_secs(3600);
        assert!(q.quote(SiteId::new(2), t).unwrap() < q.quote(SiteId::new(1), t).unwrap());
    }
}
