//! `oak-serve` child processes: one node, or a three-node `--cluster`
//! on loopback.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client;

/// How long a node may take to become ready before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A loopback port nothing listens on right now.
pub fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Running `oak-serve` node(s); killed and reaped on drop.
pub struct Servers {
    children: Vec<Child>,
    logs: Vec<PathBuf>,
    http: Vec<SocketAddr>,
    /// The node clients talk to (the primary, in a cluster).
    pub addr: SocketAddr,
}

impl Servers {
    /// Spawns the node(s) for a workload from the inputs in `inputs`
    /// (written by `Plan::write_inputs`), keeping state under `state`:
    /// one node, or with `cluster` three `--cluster` nodes on loopback.
    pub fn spawn(
        bin: &Path,
        inputs: &Path,
        state: &Path,
        store: bool,
        cluster: bool,
    ) -> std::io::Result<Servers> {
        let nodes = if cluster { 3 } else { 1 };
        let http: Vec<u16> = (0..nodes).map(|_| free_port()).collect::<Result<_, _>>()?;
        let peers: Vec<String> = if cluster {
            (0..nodes)
                .map(|_| free_port().map(|p| format!("127.0.0.1:{p}")))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Servers::spawn_roles(bin, inputs, state, store, &peers, &http, 0)
    }

    /// Spawns cluster nodes `1..` of `peers` as child processes; node 0
    /// is the caller's own (in-process) replica.
    pub fn spawn_followers(
        bin: &Path,
        inputs: &Path,
        state: &Path,
        peers: &[String],
        http: &[u16],
    ) -> std::io::Result<Servers> {
        Servers::spawn_roles(bin, inputs, state, true, peers, http, 1)
    }

    /// Spawns one node per `http` port from index `first` on; with a
    /// non-empty `peers` list each joins that replication group.
    fn spawn_roles(
        bin: &Path,
        inputs: &Path,
        state: &Path,
        store: bool,
        peers: &[String],
        http: &[u16],
        first: usize,
    ) -> std::io::Result<Servers> {
        let http: Vec<SocketAddr> = http.iter().map(|&p| loopback(p)).collect();
        let mut servers = Servers {
            children: Vec::new(),
            logs: Vec::new(),
            addr: http[first],
            http: http[first..].to_vec(),
        };
        for (i, addr) in http.iter().enumerate().skip(first) {
            let log = state.join(format!("node{i}.log"));
            let mut cmd = Command::new(bin);
            cmd.arg("--root")
                .arg(inputs.join("site"))
                .arg("--rules")
                .arg(inputs.join("site.oakrules"))
                .arg("--port")
                .arg(addr.port().to_string());
            if store {
                cmd.arg("--store").arg(state.join(format!("store{i}")));
            }
            if !peers.is_empty() {
                cmd.arg("--cluster")
                    .arg("--peers")
                    .arg(peers.join(","))
                    .arg("--role")
                    .arg(i.to_string());
            }
            cmd.stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(std::fs::File::create(&log)?);
            servers.children.push(cmd.spawn()?);
            servers.logs.push(log);
        }
        Ok(servers)
    }

    /// Waits until the node answers `/oak/health` with 200 — in a
    /// cluster, until some node holds the primary lease and has seeded
    /// the rules file through the WAL — and points `addr` at it.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            for child in &mut self.children {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("oak-serve exited during boot: {status}"));
                }
            }
            if self.children.len() == 1 {
                if let Ok((200, _)) = client::get(self.addr, "/oak/health") {
                    return Ok(());
                }
            } else {
                for (i, addr) in self.http.iter().enumerate() {
                    let primary = matches!(
                        client::get(*addr, "/oak/health"),
                        Ok((200, body)) if String::from_utf8_lossy(&body).contains("\"role\":\"primary\"")
                    );
                    let seeded = std::fs::read_to_string(&self.logs[i])
                        .is_ok_and(|log| log.contains("seeded 1 rule(s)"));
                    if primary && seeded {
                        self.addr = *addr;
                        return Ok(());
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(format!("oak-serve not ready after {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Current resident set (`VmRSS`) of the node clients talk to, MiB.
    pub fn rss_mb(&self) -> Option<f64> {
        let index = self.http.iter().position(|a| *a == self.addr)?;
        let pid = self.children[index].id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let kb: f64 = status
            .lines()
            .find(|l| l.starts_with("VmRSS:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Kills and reaps every node.
    pub fn stop(mut self) {
        self.kill_all();
    }

    fn kill_all(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        self.kill_all();
    }
}
