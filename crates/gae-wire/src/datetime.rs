//! The `dateTime.iso8601` scalar (`19980717T14:08:55`), from scratch.
//!
//! XML-RPC's date format is the compact ISO 8601 basic form with no
//! time zone. We store the six civil fields and convert from Unix
//! seconds exactly with Howard Hinnant's `civil_from_days` algorithm.

use gae_types::GaeError;
use std::fmt;

/// A civil date-time as carried by XML-RPC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DateTime {
    /// Four-digit year (0001..=9999).
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31 (validated against the month).
    pub day: u8,
    /// Hour 0..=23.
    pub hour: u8,
    /// Minute 0..=59.
    pub minute: u8,
    /// Second 0..=59 (no leap seconds, like Unix time).
    pub second: u8,
}

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u8) -> u8 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// The civil date `z` days after 1970-01-01 (Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

impl DateTime {
    /// Builds and validates a civil date-time.
    pub fn new(
        year: i32,
        month: u8,
        day: u8,
        hour: u8,
        minute: u8,
        second: u8,
    ) -> Result<DateTime, GaeError> {
        let dt = DateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
        };
        dt.validate()?;
        Ok(dt)
    }

    fn validate(&self) -> Result<(), GaeError> {
        if !(1..=9999).contains(&self.year) {
            return Err(GaeError::Parse(format!(
                "datetime: year {} out of range",
                self.year
            )));
        }
        if !(1..=12).contains(&self.month) {
            return Err(GaeError::Parse(format!(
                "datetime: month {} out of range",
                self.month
            )));
        }
        let dim = days_in_month(self.year, self.month);
        if self.day < 1 || self.day > dim {
            return Err(GaeError::Parse(format!(
                "datetime: day {} out of range for {}-{:02}",
                self.day, self.year, self.month
            )));
        }
        if self.hour > 23 || self.minute > 59 || self.second > 59 {
            return Err(GaeError::Parse(format!(
                "datetime: time {:02}:{:02}:{:02} out of range",
                self.hour, self.minute, self.second
            )));
        }
        Ok(())
    }

    /// Converts Unix seconds to a civil date-time (UTC).
    pub fn from_unix_seconds(secs: i64) -> DateTime {
        let days = secs.div_euclid(86_400);
        let sod = secs.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        DateTime {
            year,
            month,
            day,
            hour: (sod / 3600) as u8,
            minute: (sod % 3600 / 60) as u8,
            second: (sod % 60) as u8,
        }
    }

    /// Parses the XML-RPC wire form `YYYYMMDDTHH:MM:SS`.
    pub fn parse(s: &str) -> Result<DateTime, GaeError> {
        let bytes = s.trim().as_bytes();
        if bytes.len() != 17 || bytes[8] != b'T' || bytes[11] != b':' || bytes[14] != b':' {
            return Err(GaeError::Parse(format!("datetime: malformed {s:?}")));
        }
        fn digits(b: &[u8], what: &str) -> Result<u32, GaeError> {
            let mut v = 0u32;
            for &c in b {
                if !c.is_ascii_digit() {
                    return Err(GaeError::Parse(format!("datetime: non-digit in {what}")));
                }
                v = v * 10 + (c - b'0') as u32;
            }
            Ok(v)
        }
        DateTime::new(
            digits(&bytes[0..4], "year")? as i32,
            digits(&bytes[4..6], "month")? as u8,
            digits(&bytes[6..8], "day")? as u8,
            digits(&bytes[9..11], "hour")? as u8,
            digits(&bytes[12..14], "minute")? as u8,
            digits(&bytes[15..17], "second")? as u8,
        )
    }
}

impl fmt::Display for DateTime {
    /// The XML-RPC wire form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}{:02}{:02}T{:02}:{:02}:{:02}",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Unix seconds of `dt`: the inverse `from_unix_seconds` is held
    /// to (Hinnant's `days_from_civil`).
    fn to_unix_seconds(dt: DateTime) -> i64 {
        let y = i64::from(dt.year) - i64::from(dt.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = i64::from((dt.month as i32 + 9) % 12);
        let doy = (153 * mp + 2) / 5 + i64::from(dt.day) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        let days = era * 146_097 + doe - 719_468;
        days * 86_400 + i64::from(dt.hour) * 3600 + i64::from(dt.minute) * 60 + i64::from(dt.second)
    }

    #[test]
    fn known_instants() {
        assert_eq!(
            DateTime::from_unix_seconds(0),
            DateTime::new(1970, 1, 1, 0, 0, 0).unwrap()
        );
        // 2005-06-14 12:00:00 UTC (around the paper's ICPP 2005).
        let dt = DateTime::new(2005, 6, 14, 12, 0, 0).unwrap();
        assert_eq!(to_unix_seconds(dt), 1_118_750_400);
        assert_eq!(DateTime::from_unix_seconds(1_118_750_400), dt);
    }

    #[test]
    fn wire_format_matches_spec_example() {
        // The canonical example from the XML-RPC spec.
        let dt = DateTime::parse("19980717T14:08:55").unwrap();
        assert_eq!((dt.year, dt.month, dt.day), (1998, 7, 17));
        assert_eq!((dt.hour, dt.minute, dt.second), (14, 8, 55));
        assert_eq!(dt.to_string(), "19980717T14:08:55");
    }

    #[test]
    fn leap_years() {
        assert!(DateTime::new(2004, 2, 29, 0, 0, 0).is_ok());
        assert!(DateTime::new(1900, 2, 29, 0, 0, 0).is_err());
        assert!(DateTime::new(2000, 2, 29, 0, 0, 0).is_ok());
        assert!(DateTime::new(2005, 2, 29, 0, 0, 0).is_err());
    }

    #[test]
    fn invalid_fields_rejected() {
        assert!(DateTime::new(2005, 13, 1, 0, 0, 0).is_err());
        assert!(DateTime::new(2005, 0, 1, 0, 0, 0).is_err());
        assert!(DateTime::new(2005, 4, 31, 0, 0, 0).is_err());
        assert!(DateTime::new(2005, 1, 1, 24, 0, 0).is_err());
        assert!(DateTime::new(2005, 1, 1, 0, 60, 0).is_err());
        assert!(DateTime::new(0, 1, 1, 0, 0, 0).is_err());
    }

    #[test]
    fn malformed_strings_rejected() {
        for s in [
            "",
            "2005",
            "20050614 12:00:00",
            "20050614T12-00-00",
            "2005061XT12:00:00",
        ] {
            assert!(DateTime::parse(s).is_err(), "{s:?} should be rejected");
        }
    }

    proptest! {
        #[test]
        fn unix_roundtrip(secs in 0i64..253_402_300_799) {
            let dt = DateTime::from_unix_seconds(secs);
            prop_assert!(dt.validate().is_ok());
            prop_assert_eq!(to_unix_seconds(dt), secs);
        }

        #[test]
        fn string_roundtrip(secs in 0i64..253_402_300_799) {
            let dt = DateTime::from_unix_seconds(secs);
            prop_assert_eq!(DateTime::parse(&dt.to_string()).unwrap(), dt);
        }

        #[test]
        fn parse_never_panics(s in ".*") {
            let _ = DateTime::parse(&s);
        }
    }
}
