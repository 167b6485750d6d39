//! The Paragon accounting record, field-for-field as the paper
//! describes it (§7), plus its CSV export.

use gae_types::{GaeError, GaeResult, JobType, SimDuration, SimTime};

/// One accounting-log entry.
///
/// "The accounting data had the following information recorded for
/// each job: account name; login name; partition to which the job was
/// allocated; the number of nodes for the job; the job type (batch or
/// interactive); the job status (successful or not); the number of
/// requested CPU hours; the name of the queue to which the job was
/// allocated; the rate of charge for CPU hours and idle hours; and the
/// task's duration in terms of when it was submitted, started, and
/// completed." (§7)
#[derive(Clone, Debug, PartialEq)]
pub struct ParagonRecord {
    /// Account (project) name.
    pub account: String,
    /// Login (user) name.
    pub login: String,
    /// Partition the job was allocated to.
    pub partition: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Batch or interactive.
    pub job_type: JobType,
    /// True if the job completed successfully.
    pub success: bool,
    /// Requested CPU hours.
    pub requested_cpu_hours: f64,
    /// Queue name.
    pub queue: String,
    /// Charge rate for CPU hours.
    pub charge_cpu_rate: f64,
    /// Charge rate for idle hours.
    pub charge_idle_rate: f64,
    /// Submission instant.
    pub submitted: SimTime,
    /// Start instant.
    pub started: SimTime,
    /// Completion instant.
    pub completed: SimTime,
}

impl ParagonRecord {
    /// The job's actual runtime (start → completion).
    pub fn runtime(&self) -> SimDuration {
        self.completed.saturating_since(self.started)
    }

    /// Internal consistency: submit ≤ start ≤ complete, nodes ≥ 1.
    pub fn validate(&self) -> GaeResult<()> {
        if self.nodes == 0 {
            return Err(GaeError::Parse("record: zero nodes".into()));
        }
        if self.started < self.submitted || self.completed < self.started {
            return Err(GaeError::Parse(format!(
                "record: non-monotonic times {} / {} / {}",
                self.submitted, self.started, self.completed
            )));
        }
        Ok(())
    }

    /// CSV header matching [`ParagonRecord::to_csv_row`].
    pub const CSV_HEADER: &'static str = "account,login,partition,nodes,job_type,success,\
requested_cpu_hours,queue,charge_cpu_rate,charge_idle_rate,submitted_us,started_us,completed_us";

    /// Serializes as one CSV row. Free-text fields are generated
    /// identifiers (no commas), so no quoting is needed.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.account,
            self.login,
            self.partition,
            self.nodes,
            self.job_type,
            self.success,
            self.requested_cpu_hours,
            self.queue,
            self.charge_cpu_rate,
            self.charge_idle_rate,
            self.submitted.as_micros(),
            self.started.as_micros(),
            self.completed.as_micros(),
        )
    }

    /// Serializes a batch with header.
    pub fn to_csv(records: &[ParagonRecord]) -> String {
        let mut out = String::with_capacity(records.len() * 96 + 128);
        out.push_str(Self::CSV_HEADER);
        out.push('\n');
        for r in records {
            out.push_str(&r.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// Writes a batch to a CSV file.
    pub fn save_csv(records: &[ParagonRecord], path: &std::path::Path) -> GaeResult<()> {
        std::fs::write(path, Self::to_csv(records))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParagonRecord {
        ParagonRecord {
            account: "cms".into(),
            login: "adowney".into(),
            partition: "compute".into(),
            nodes: 16,
            job_type: JobType::Batch,
            success: true,
            requested_cpu_hours: 4.0,
            queue: "q_long".into(),
            charge_cpu_rate: 1.0,
            charge_idle_rate: 0.1,
            submitted: SimTime::from_secs(100),
            started: SimTime::from_secs(160),
            completed: SimTime::from_secs(1160),
        }
    }

    #[test]
    fn derived_durations() {
        let r = sample();
        assert_eq!(r.runtime(), SimDuration::from_secs(1000));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn validate_rejects_time_travel() {
        let mut r = sample();
        r.started = SimTime::from_secs(50); // before submit
        assert!(r.validate().is_err());
        let mut r = sample();
        r.completed = SimTime::from_secs(10);
        assert!(r.validate().is_err());
        let mut r = sample();
        r.nodes = 0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn csv_has_the_header_then_one_row_per_record() {
        let mut r2 = sample();
        r2.login = "smith".into();
        r2.job_type = JobType::Interactive;
        r2.success = false;
        let text = ParagonRecord::to_csv(&[sample(), r2.clone()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                ParagonRecord::CSV_HEADER,
                &sample().to_csv_row(),
                &r2.to_csv_row()
            ]
        );
        assert_eq!(
            lines[2],
            "cms,smith,compute,16,interactive,false,4,q_long,1,0.1,100000000,160000000,1160000000"
        );
    }
}
