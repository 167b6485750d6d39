//! Empty stand-in for `crossbeam`: nothing calls it; it exists only so the crates that still list it as a dependency resolve offline.
