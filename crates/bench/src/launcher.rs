//! Multi-process launching: one OS process per rank, rendezvoused
//! through a file.
//!
//! The TCP transport ([`sar_comm::TcpTransport`]) needs every rank to
//! know rank 0's rendezvous address before any socket exists. Between
//! processes on one machine the simplest reliable channel is the
//! filesystem: rank 0 binds `127.0.0.1:0` (an ephemeral port — nothing
//! is hard-coded, so parallel launches never collide), writes the
//! resulting `host:port` to a rendezvous file with an atomic
//! temp-file-plus-rename, and the other ranks poll for the file.
//!
//! [`Cluster`] is the one spawn/reap path: it execs one copy of a rank
//! binary per rank with `--rank`/`--world`/`--rendezvous-file` prepended
//! to the shared flags, reaps them, kills the survivors as soon as one
//! rank fails, and kills whatever is still running when dropped.
//! [`RankCli`] is the matching command-line parser both rank binaries
//! (`sar-worker`, `sar-serve`) share, and [`run_tcp_training`] is one
//! complete `sar-worker` training launch.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::distrun::Workload;
use crate::report::RunReport;

/// Writes `addr` to the rendezvous file atomically (temp file in the
/// same directory, then rename), so a polling reader never observes a
/// partial write.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_rendezvous_addr(path: &Path, addr: &SocketAddr) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr.to_string())?;
    std::fs::rename(&tmp, path)
}

/// Polls for the rendezvous file until it appears (with content) or
/// `timeout` elapses, returning the `host:port` string rank 0 wrote.
///
/// # Errors
///
/// Returns a message naming the file and the timeout if it never
/// appears — a sibling rank that fails before binding its listener must
/// surface as a clean error here, not a hang.
pub fn read_rendezvous_addr(path: &Path, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            let s = s.trim();
            if !s.is_empty() {
                return Ok(s.to_string());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "rendezvous file {} did not appear within {:?} (did rank 0 start?)",
                path.display(),
                timeout
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Fresh paths in the system temp directory, unique per process and per
/// call so repeated launches never reuse a stale file. Every file handed
/// out is removed when the set is dropped.
#[derive(Debug, Default)]
pub(crate) struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    /// A new unique path with extension `ext`, removed on drop.
    pub(crate) fn path(&mut self, ext: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sar-{}-{seq}.{ext}", std::process::id()));
        self.0.push(path.clone());
        path
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Locates a sibling binary (e.g. `sar-worker`) in the directory of the
/// currently running executable — all workspace binaries land in the
/// same `target/<profile>/` directory.
///
/// # Errors
///
/// Returns a message with the build command to run if the binary is
/// missing (e.g. `repro` was built alone without `--bins`).
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| format!("{} has no parent directory", me.display()))?;
    let exe = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found next to {}; build it with `cargo build --release -p sar-bench --bins`",
            exe.display(),
            me.display()
        ))
    }
}

/// A running set of rank processes. Children inherit stdout/stderr.
/// Dropping the cluster kills and reaps every rank still running and
/// removes its rendezvous file, so no error path leaks a process.
#[derive(Debug)]
pub struct Cluster {
    children: Vec<(usize, Child)>,
    files: TempFiles,
}

impl Cluster {
    /// Spawns one process per command without waiting; the `i`-th
    /// command is rank `i`.
    ///
    /// # Errors
    ///
    /// Names the rank that failed to spawn; the ranks already started
    /// are killed and reaped.
    pub fn spawn(commands: impl IntoIterator<Item = Command>) -> Result<Cluster, String> {
        let mut cluster = Cluster {
            children: Vec::new(),
            files: TempFiles::default(),
        };
        for (rank, mut cmd) in commands.into_iter().enumerate() {
            let child = cmd
                .spawn()
                .map_err(|e| format!("rank {rank}: spawn failed: {e}"))?;
            cluster.children.push((rank, child));
        }
        Ok(cluster)
    }

    /// Spawns `world` copies of `exe`, each with `--rank R --world N
    /// --rendezvous-file PATH` prepended to `common_args`. The rendezvous
    /// file is fresh per launch and removed with the cluster.
    ///
    /// # Errors
    ///
    /// As [`Cluster::spawn`].
    pub fn launch(exe: &Path, world: usize, common_args: &[String]) -> Result<Cluster, String> {
        assert!(world > 0, "cannot launch a zero-rank cluster");
        let mut files = TempFiles::default();
        let rendezvous = files.path("addr");
        let mut cluster = Cluster::spawn((0..world).map(|rank| {
            let mut cmd = Command::new(exe);
            cmd.arg("--rank")
                .arg(rank.to_string())
                .arg("--world")
                .arg(world.to_string())
                .arg("--rendezvous-file")
                .arg(&rendezvous)
                .args(common_args);
            cmd
        }))?;
        cluster.files = files;
        Ok(cluster)
    }

    /// Reaps every rank. Ranks block on their peers, so once one exits
    /// non-zero the survivors would only sit in `recv` until their
    /// timeout: they are killed at once instead.
    ///
    /// # Errors
    ///
    /// Names every rank that failed in the poll that saw the first
    /// failure, and the ranks killed because of it.
    pub fn wait(&mut self) -> Result<(), String> {
        loop {
            let mut failures = Vec::new();
            self.children
                .retain_mut(|(rank, child)| match child.try_wait() {
                    Ok(None) => true,
                    Ok(Some(status)) if status.success() => false,
                    Ok(Some(status)) => {
                        failures.push(format!("rank {rank} exited with {status}"));
                        false
                    }
                    Err(e) => {
                        failures.push(format!("rank {rank}: wait failed: {e}"));
                        false
                    }
                });
            if !failures.is_empty() {
                let killed = self.kill();
                if !killed.is_empty() {
                    failures.push(format!("killed ranks {killed:?} after the failure"));
                }
                return Err(failures.join("; "));
            }
            if self.children.is_empty() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Kills and reaps every rank still running, returning their ranks.
    fn kill(&mut self) -> Vec<usize> {
        self.children
            .drain(..)
            .map(|(rank, mut child)| {
                let _ = child.kill();
                let _ = child.wait();
                rank
            })
            .collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Launches `world` copies of `exe` ([`Cluster::launch`]) and waits for
/// all of them ([`Cluster::wait`]).
///
/// # Errors
///
/// As [`Cluster::launch`] and [`Cluster::wait`].
pub fn spawn_ranks(exe: &Path, world: usize, common_args: &[String]) -> Result<(), String> {
    Cluster::launch(exe, world, common_args)?.wait()
}

/// Trains `workload` as `world` `sar-worker` processes (`exe`) over TCP
/// loopback and returns rank 0's gathered report together with its
/// parity digest. The report and digest files live in the temp directory
/// only for the duration of the call.
///
/// # Errors
///
/// Spawn and rank failures, and a missing or malformed report.
pub fn run_tcp_training(
    exe: &Path,
    world: usize,
    workload: &Workload,
    experiment: &str,
) -> Result<(RunReport, String), String> {
    let mut files = TempFiles::default();
    let (out, digest) = (files.path("json"), files.path("digest"));
    let mut args = workload.to_args();
    args.extend([
        "--experiment".to_string(),
        experiment.to_string(),
        "--out".to_string(),
        out.display().to_string(),
        "--digest-out".to_string(),
        digest.display().to_string(),
    ]);
    spawn_ranks(exe, world, &args)?;
    let read = |path: &Path, what: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("rank 0 wrote no {what} at {}: {e}", path.display()))
    };
    let report = RunReport::from_json(&read(&out, "report")?)
        .map_err(|e| format!("gathered report: {e}"))?;
    Ok((report, read(&digest, "digest")?))
}

/// The command line of a rank process (`sar-worker`, `sar-serve`): the
/// shared rank flags, the [`Workload`] flags, and the binary's own
/// `--flag value` options.
#[derive(Debug, Clone)]
pub struct RankCli {
    /// `--spawn-local N`: relaunch this binary as `N` local ranks.
    pub spawn_local: Option<usize>,
    /// `--rank R`.
    pub rank: Option<usize>,
    /// `--world N`.
    pub world: Option<usize>,
    /// `--rendezvous-file PATH`.
    pub rendezvous_file: Option<PathBuf>,
    /// `--rendezvous-timeout-secs N` (default 60).
    pub rendezvous_timeout: Duration,
    /// Every other flag, parsed by [`Workload::from_args`].
    pub workload: Workload,
    /// The binary's own flags, in command-line order.
    pub extra: Vec<(String, String)>,
}

impl RankCli {
    /// Parses `argv` (without the program name). `own` lists the
    /// binary's own value-taking flags.
    ///
    /// # Errors
    ///
    /// Names a missing or malformed value, an unknown flag, or
    /// `--spawn-local` combined with the per-rank flags.
    pub fn parse(argv: &[String], own: &[&str]) -> Result<RankCli, String> {
        let mut cli = RankCli {
            spawn_local: None,
            rank: None,
            world: None,
            rendezvous_file: None,
            rendezvous_timeout: Duration::from_secs(60),
            workload: Workload::default(),
            extra: Vec::new(),
        };
        let mut rest = Vec::new();
        let mut args = argv.iter();
        while let Some(flag) = args.next() {
            if Workload::SWITCHES.contains(&flag.as_str()) {
                rest.push(flag.clone());
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?
                .clone();
            let count = || {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("{flag} takes a count, not {value}"))
            };
            match flag.as_str() {
                "--spawn-local" => cli.spawn_local = Some(count()?),
                "--rank" => cli.rank = Some(count()?),
                "--world" => cli.world = Some(count()?),
                "--rendezvous-file" => cli.rendezvous_file = Some(value.into()),
                "--rendezvous-timeout-secs" => {
                    cli.rendezvous_timeout = Duration::from_secs(count()? as u64);
                }
                f if own.contains(&f) => cli.extra.push((flag.clone(), value)),
                _ => rest.extend([flag.clone(), value]),
            }
        }
        cli.workload = Workload::from_args(&rest)?;
        match cli.spawn_local {
            Some(0) => Err("--spawn-local needs at least one rank".into()),
            Some(_) if cli.rank.is_some() || cli.rendezvous_file.is_some() => {
                Err("--spawn-local is exclusive with --rank/--rendezvous-file".into())
            }
            _ => Ok(cli),
        }
    }

    /// The value of the binary's own flag `name` (the last one given).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.extra
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `(rank, world, rendezvous file)` of a rank process.
    ///
    /// # Errors
    ///
    /// Names the first missing required flag.
    pub fn rank_flags(&self) -> Result<(usize, usize, PathBuf), String> {
        let rank = self
            .rank
            .ok_or("--rank is required (or use --spawn-local N)")?;
        let world = self.world.ok_or("--world is required")?;
        let file = self
            .rendezvous_file
            .clone()
            .ok_or("--rendezvous-file is required")?;
        Ok((rank, world, file))
    }

    /// `--spawn-local N`: relaunches the running executable as `n` rank
    /// processes with the same workload and own flags, and waits.
    ///
    /// # Errors
    ///
    /// As [`spawn_ranks`].
    pub fn spawn_local(&self, n: usize) -> Result<(), String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let mut args = self.workload.to_args();
        args.extend([
            "--rendezvous-timeout-secs".to_string(),
            self.rendezvous_timeout.as_secs().to_string(),
        ]);
        for (k, v) in &self.extra {
            args.extend([k.clone(), v.clone()]);
        }
        spawn_ranks(&exe, n, &args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    #[test]
    fn rendezvous_file_round_trips_atomically() {
        let mut files = TempFiles::default();
        let path = files.path("addr");
        let addr = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 43210);
        write_rendezvous_addr(&path, &addr).unwrap();
        let read = read_rendezvous_addr(&path, Duration::from_secs(1)).unwrap();
        assert_eq!(read, "127.0.0.1:43210");
        // The temp file must not linger next to the real one.
        assert!(!path.with_extension("tmp").exists());
        drop(files);
        assert!(!path.exists(), "temp files are removed on drop");
    }

    #[test]
    fn missing_rendezvous_file_times_out_with_context() {
        let path = TempFiles::default().path("addr");
        let err = read_rendezvous_addr(&path, Duration::from_millis(50)).unwrap_err();
        assert!(err.contains("rendezvous file"), "unhelpful error: {err}");
        assert!(
            err.contains("rank 0"),
            "error should hint at the cause: {err}"
        );
    }

    #[test]
    fn temp_paths_are_unique_per_call() {
        let mut files = TempFiles::default();
        assert_ne!(files.path("addr"), files.path("addr"));
    }

    #[test]
    fn sibling_binary_reports_missing_with_build_hint() {
        let err = sibling_binary("definitely-not-a-real-binary").unwrap_err();
        assert!(err.contains("cargo build"), "no build hint in: {err}");
    }

    #[test]
    fn wait_kills_the_survivors_of_a_failed_rank() {
        let sleeper = || {
            let mut cmd = Command::new("sleep");
            cmd.arg("600");
            cmd
        };
        let mut failing = Command::new("sh");
        failing.args(["-c", "exit 3"]);
        let started = Instant::now();
        let mut cluster = Cluster::spawn([sleeper(), failing]).unwrap();
        let err = cluster.wait().unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wait sat on the surviving rank for {:?}",
            started.elapsed()
        );
        assert!(err.starts_with("rank 1 exited with"), "{err}");
        assert!(err.contains("killed ranks [0]"), "{err}");

        // Dropping a cluster mid-run kills it too.
        let started = Instant::now();
        drop(Cluster::spawn([sleeper(), sleeper()]).unwrap());
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn rank_cli_splits_rank_own_and_workload_flags() {
        let argv: Vec<String> = [
            "--rank",
            "1",
            "--world",
            "2",
            "--rendezvous-file",
            "/tmp/r",
            "--nodes",
            "64",
            "--jk",
            "--out",
            "x.json",
            "--arch",
            "gat",
        ]
        .map(String::from)
        .to_vec();
        let cli = RankCli::parse(&argv, &["--out"]).unwrap();
        assert_eq!(cli.rank_flags(), Ok((1, 2, PathBuf::from("/tmp/r"))));
        assert_eq!(cli.get("--out"), Some("x.json"));
        assert_eq!((cli.workload.nodes, cli.workload.jk), (64, true));
        assert_eq!(cli.workload.arch, "gat");
        let parse =
            |a: &[&str]| RankCli::parse(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &[]);
        assert!(parse(&["--bogus", "1"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--nodes"]).unwrap_err().contains("missing value"));
        assert!(parse(&["--spawn-local", "0"]).is_err());
        assert!(parse(&["--spawn-local", "2", "--rank", "0"]).is_err());
        assert!(parse(&[])
            .unwrap()
            .rank_flags()
            .unwrap_err()
            .contains("--rank"));
    }
}
