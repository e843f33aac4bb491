//! Process CPU time from `/proc/self/stat`.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by every thread of this process
/// so far, at 10 ms resolution.
pub fn process_cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_stat(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable /proc/self/stat"))
}

/// `utime + stime` from a `stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from its closing `)`:
/// `utime` and `stime` are the 12th and 13th fields after it.
fn parse_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fields_after_the_command_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_stat(line), Some(3.0));
    }

    #[test]
    fn reads_this_process() {
        assert!(process_cpu_seconds().unwrap() >= 0.0);
    }
}
