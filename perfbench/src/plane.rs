//! The system under test: tenants in a `TenantRegistry` behind a live
//! `TemplarServer`, plus the durable MAS tenant's restart path.

use datasets::{scale_log, Dataset};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use templar_core::{QueryLog, TemplarConfig};
use templar_server::{ServerConfig, TemplarServer};
use templar_service::wal::WalWriter;
use templar_service::{
    ServiceConfig, TemplarService, TenantRegistry, WalConfig, SNAPSHOT_FILE, WAL_DIR,
};

/// Server worker threads: the load is sized for a 2-core machine.
pub const SERVER_WORKERS: usize = 2;

/// The durable tenant; every workload has one, so every workload can
/// measure the write, checkpoint and restart path.
pub const DURABLE_TENANT: &str = "mas";

/// One registered tenant and the benchmark it serves.
pub struct Tenant {
    pub name: &'static str,
    pub dataset: Arc<Dataset>,
    pub service: Arc<TemplarService>,
}

/// Which tenants to stand up.
#[derive(Clone, Copy)]
pub struct PlaneSpec {
    /// Register IMDB and Yelp next to MAS.
    pub all_datasets: bool,
    /// The durable MAS tenant's journal holds `scale_log(mas, factor)`.
    pub mas_scale: usize,
}

pub struct Plane {
    pub registry: Arc<TenantRegistry>,
    pub server: TemplarServer,
    pub tenants: Vec<Tenant>,
    /// The durable tenant's directory (snapshot + journal).
    pub durable_dir: PathBuf,
    /// The log the durable tenant's journal was bootstrapped from.
    pub mas_log: QueryLog,
}

impl Plane {
    /// Build every tenant and start the server.  `dir` must not exist yet.
    /// The durable tenant starts the way a production restart does: from a
    /// journal, through `TemplarService::recover`.
    pub fn start(spec: PlaneSpec, seed: u64, dir: &Path) -> Result<Plane, String> {
        let registry = Arc::new(TenantRegistry::new());
        let mas = Arc::new(Dataset::mas());
        let mas_log = scale_log(&mas.full_log(), spec.mas_scale, seed);
        write_journal(&dir.join(WAL_DIR), &mas_log)?;
        let durable = TemplarService::recover(
            mas.db.clone(),
            dir,
            TemplarConfig::paper_defaults(),
            ServiceConfig::default(),
        )
        .map_err(|e| format!("recover the durable tenant: {e}"))?;
        let mut tenants = vec![register(&registry, "mas", mas, durable)];
        if spec.all_datasets {
            for (name, dataset) in [("imdb", Dataset::imdb()), ("yelp", Dataset::yelp())] {
                let service = TemplarService::spawn(
                    dataset.db.clone(),
                    &dataset.full_log(),
                    TemplarConfig::paper_defaults(),
                    ServiceConfig::default(),
                )
                .map_err(|e| format!("spawn {name}: {e}"))?;
                tenants.push(register(&registry, name, Arc::new(dataset), service));
            }
        }
        let server = TemplarServer::start(
            Arc::clone(&registry),
            ServerConfig::default().with_workers(SERVER_WORKERS),
        )
        .map_err(|e| format!("start the server: {e}"))?;
        Ok(Plane {
            registry,
            server,
            tenants,
            durable_dir: dir.to_path_buf(),
            mas_log,
        })
    }

    pub fn tenant(&self, name: &str) -> &Tenant {
        self.tenants
            .iter()
            .find(|t| t.name == name)
            .expect("a registered tenant")
    }

    pub fn durable(&self) -> &Arc<TemplarService> {
        &self.tenant(DURABLE_TENANT).service
    }
}

fn register(
    registry: &TenantRegistry,
    name: &'static str,
    dataset: Arc<Dataset>,
    service: TemplarService,
) -> Tenant {
    let service = registry.register(name, service);
    Tenant {
        name,
        dataset,
        service,
    }
}

/// Journal every entry of `log`, as the ingest worker would have.
fn write_journal(wal_dir: &Path, log: &QueryLog) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write the bootstrap journal: {e}");
    let mut wal = WalWriter::create(wal_dir, 1, WalConfig::default()).map_err(io)?;
    for query in log.queries() {
        wal.append(&query.to_string());
    }
    wal.sync().map_err(io)?;
    Ok(())
}

/// Copy a durable directory's snapshot and journal (not the owner's lock)
/// to `to`, as a restart on another machine would see it.
pub fn copy_durable_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {}: {e}", from.display());
    std::fs::create_dir_all(to.join(WAL_DIR)).map_err(io)?;
    if from.join(SNAPSHOT_FILE).exists() {
        std::fs::copy(from.join(SNAPSHOT_FILE), to.join(SNAPSHOT_FILE)).map_err(io)?;
    }
    for entry in std::fs::read_dir(from.join(WAL_DIR)).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(WAL_DIR).join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// Restart a durable tenant from a copy of its directory; returns the
/// recovered service and the seconds `recover` took.
pub fn recover_copy(
    dataset: &Dataset,
    from: &Path,
    to: &Path,
) -> Result<(TemplarService, f64), String> {
    copy_durable_dir(from, to)?;
    let started = Instant::now();
    let service = TemplarService::recover(
        dataset.db.clone(),
        to,
        TemplarConfig::paper_defaults(),
        ServiceConfig::default(),
    )
    .map_err(|e| format!("recover {}: {e}", to.display()))?;
    Ok((service, started.elapsed().as_secs_f64()))
}
