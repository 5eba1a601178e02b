//! An in-process daemon (`daydream_serve::Server` with one engine worker
//! thread) plus the client's keep-alive connection to it. The job worker
//! starts unpinned; the accept loop and its connection threads run on
//! the client's CPU (see `pin`).

use crate::client::{KeepAlive, Response};
use crate::pin;
use daydream_serve::{ServeConfig, ServeSummary, Server};
use std::path::PathBuf;
use std::thread::JoinHandle;

pub struct Session {
    pub addr: String,
    conn: KeepAlive,
    server: JoinHandle<Result<ServeSummary, String>>,
}

impl Session {
    /// Binds a daemon on a free local port, starts its accept loop and
    /// opens the keep-alive connection. `store` enables the run store
    /// (sweep jobs and history).
    pub fn start(store: Option<PathBuf>) -> Result<Session, String> {
        let server = pin::unpinned(|| {
            Server::bind(ServeConfig {
                threads: 1,
                store_root: store,
                ..ServeConfig::default()
            })
        })?;
        let addr = server.local_addr()?.to_string();
        let server = std::thread::Builder::new()
            .name("e2ebench-daemon".into())
            .spawn(move || {
                pin::daemon_thread();
                server.run()
            })
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let conn = KeepAlive::connect(&addr)?;
        Ok(Session { addr, conn, server })
    }

    /// One request over the keep-alive connection.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        self.conn.request(method, path, body)
    }

    /// Asks the daemon to shut down over the keep-alive connection,
    /// closes it, and waits for the accept loop and every connection
    /// thread to finish.
    pub fn stop(mut self) -> Result<ServeSummary, String> {
        let r = self.conn.request("POST", "/shutdown", "")?;
        if r.status != 200 {
            return Err(format!("shutdown answered {}: {}", r.status, r.body));
        }
        drop(self.conn);
        self.server
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}
