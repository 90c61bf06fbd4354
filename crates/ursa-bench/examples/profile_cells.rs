//! Standalone driver for the three engine cells whose work counts
//! `tests/ps_reference.rs` pins (canonical, ps_heavy and big), sized for
//! external profilers: long enough runs to dominate startup, no harness
//! timing logic in the way. `big`, 63 services with a queue ~200 deep, is
//! the one deep-queue regime: no ledger workload reaches it. The engine
//! does not time itself (DESIGN.md §6, "Engine cost model, measured from
//! outside"); this is how to ask where its time goes.
//!
//! `decisions` samples the control plane instead: Sinan's and Firm's
//! deployed ticks, prepared as the ledger's `control_replay` prepares them
//! and replayed as it replays them, ten rounds of Sinan and a hundred of
//! Firm over an hour of one-minute snapshots per rep. On a 2-core Xeon the
//! preparation takes about ten seconds and a rep about a tenth of one, so
//! run a thousand reps or more.
//!
//! ```sh
//! cargo build --release -p ursa-bench --example profile_cells
//! cd target/release/examples      # usage: profile_cells [canonical|ps_heavy|big|decisions] [reps]
//! ```
//!
//! With `gprofng` (binutils ≥ 2.39; `-p hi` samples every millisecond):
//!
//! ```sh
//! gprofng collect app -p hi -o /tmp/prof.er ./profile_cells canonical 100
//! gprofng display text -functions /tmp/prof.er | head -40
//! ```
//!
//! Without it, a `SIGPROF` sampler needs only `gcc` and `addr2line`. Preload
//! a shim that records the interrupted instruction pointer on every
//! `ITIMER_PROF` tick (CPU time, so a descheduled process is not sampled)
//! and dumps them with the memory map at exit:
//!
//! ```c
//! #define _GNU_SOURCE
//! #include <signal.h>
//! #include <stdio.h>
//! #include <sys/time.h>
//! #include <ucontext.h>
//!
//! static unsigned long ips[1 << 20];
//! static unsigned n;
//!
//! static void tick(int sig, siginfo_t *si, void *uc) {
//!     if (n < 1 << 20) ips[n++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
//! }
//!
//! __attribute__((constructor)) static void start(void) {
//!     struct sigaction sa = {.sa_sigaction = tick, .sa_flags = SA_SIGINFO | SA_RESTART};
//!     sigaction(SIGPROF, &sa, 0);
//!     struct itimerval every_ms = {{0, 1000}, {0, 1000}};
//!     setitimer(ITIMER_PROF, &every_ms, 0);
//! }
//!
//! __attribute__((destructor)) static void stop(void) {
//!     char line[512];
//!     FILE *maps = fopen("/proc/self/maps", "r"), *out = fopen("sigprof.out", "w");
//!     while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
//!     for (unsigned i = 0; i < n; i++) fprintf(out, "ip %lx\n", ips[i]);
//!     fclose(out);
//! }
//! ```
//!
//! ```sh
//! gcc -O2 -shared -fPIC sigprof.c -o sigprof.so
//! LD_PRELOAD=$PWD/sigprof.so ./profile_cells canonical 100   # writes ./sigprof.out
//! python3 symbolise.py sigprof.out
//! ```
//!
//! where `symbolise.py` turns each address into an offset inside the file
//! it was mapped from and asks `addr2line` for the function (the release
//! profile keeps debug info; shared libraries without it resolve to the
//! nearest exported symbol, so read those lines as "libm", "libc"):
//!
//! ```python
//! import collections, subprocess, sys
//! base, text, ips = {}, [], []
//! for line in open(sys.argv[1]):
//!     kind, *f = line.split()
//!     if kind == "ip":
//!         ips.append(int(f[0], 16))
//!     elif len(f) > 5:
//!         lo, hi = (int(x, 16) for x in f[0].split("-"))
//!         if int(f[2], 16) == 0:
//!             base[f[5]] = lo
//!         if "x" in f[1]:
//!             text.append((lo, hi, f[5]))
//! by_file = collections.defaultdict(list)
//! for ip in ips:
//!     for lo, hi, path in text:
//!         if lo <= ip < hi:
//!             by_file[path].append(hex(ip - base[path]))
//! count = collections.Counter()
//! for path, addrs in by_file.items():
//!     # -i lists the inlined frames innermost first; the last function
//!     # before the next address is the one that was actually called.
//!     out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", path] + addrs,
//!                          capture_output=True, text=True).stdout
//!     for frames in out.split("\n0x"):
//!         lines = frames.splitlines()
//!         if len(lines) >= 2:  # an address addr2line returned no frame for
//!             count[f"{path.rsplit('/', 1)[-1]}  {lines[-2]}"] += 1
//! for fn, k in count.most_common(20):
//!     print(f"{100 * k / len(ips):5.1f}%  {fn}")
//! ```
//!
//! The kernel delivers `ITIMER_PROF` at its tick rate, 250–1000 samples per
//! CPU-second: run enough reps for a few thousand samples before reading
//! anything below 5 %.

use ursa_apps::{scale_app, social_network};
use ursa_bench::{prepare_firm, prepare_sinan, Scale};
use ursa_sim::prelude::*;
use ursa_sim::workload::RateFn;

fn ps_heavy(seed: u64) -> u64 {
    let topo = Topology::new(
        vec![ServiceCfg::new("svc", 8.0).with_workers(512)],
        vec![ClassCfg {
            name: "req".into(),
            priority: Priority::HIGH,
            root: CallNode::leaf(ServiceId(0), WorkDist::Exponential { mean: 0.004 }),
        }],
    )
    .expect("static ps_heavy topology");
    let mut sim = Simulation::new(topo, SimConfig::default(), seed);
    sim.set_rate(ClassId(0), RateFn::Constant(4000.0));
    sim.run_for(SimDur::from_secs(10));
    sim.events_processed()
}

fn canonical(seed: u64) -> u64 {
    let app = social_network(true);
    let mut sim = app.build_sim(seed);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps));
    sim.run_for(SimDur::from_secs(30));
    sim.events_processed()
}

fn big(seed: u64) -> u64 {
    let app = scale_app(&social_network(false), 7);
    let mut sim = app.build_sim(seed);
    app.apply_load(&mut sim, RateFn::Constant(app.default_rps * 2.0));
    sim.run_for(SimDur::from_secs(20));
    sim.events_processed()
}

/// The actuation surface the replayed managers see, backed by two vectors.
#[derive(Clone)]
struct Plane {
    replicas: Vec<usize>,
    cores: Vec<f64>,
}

impl ControlPlane for Plane {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn num_services(&self) -> usize {
        self.replicas.len()
    }
    fn service_name(&self, service: ServiceId) -> String {
        format!("s{}", service.0)
    }
    fn replicas(&self, service: ServiceId) -> usize {
        self.replicas[service.0]
    }
    fn set_replicas(&mut self, service: ServiceId, n: usize) {
        self.replicas[service.0] = n.max(1);
    }
    fn cpu_limit(&self, service: ServiceId) -> f64 {
        self.cores[service.0]
    }
    fn set_cpu_limit(&mut self, service: ServiceId, cores: f64) {
        self.cores[service.0] = cores;
    }
    fn total_allocated_cores(&self) -> f64 {
        self.replicas
            .iter()
            .zip(&self.cores)
            .map(|(&r, &c)| r as f64 * c)
            .sum()
    }
}

/// Sinan and Firm trained on the social network as `control_replay` trains
/// them, and an hour of its skewed diurnal snapshots; each call replays
/// fresh copies of both and returns the ticks made.
fn decisions() -> impl FnMut(u64) -> u64 {
    // The seeds `control_replay` prepares with and, at `--seed 0`, records with.
    const SEED: u64 = 0x11_12;
    let app = social_network(false);
    let (sinan, _) = prepare_sinan(&app, Scale::Quick, SEED ^ 0xAA);
    let firm = prepare_firm(&app, Scale::Quick, SEED ^ 0xBB);
    let mut sim = app.build_sim(0x5A4B);
    let diurnal = RateFn::Diurnal {
        base: 0.6 * app.default_rps,
        peak: 1.4 * app.default_rps,
        period: SimDur::from_mins(20),
    };
    app.apply_load_with_mix(&mut sim, diurnal, &app.skewed_mix(2.0));
    let snapshots: Vec<MetricsSnapshot> = (0..60)
        .map(|_| {
            sim.run_for(SimDur::from_mins(1));
            sim.harvest()
        })
        .collect();
    let services = app.topology.services();
    let start = Plane {
        replicas: services.iter().map(|s| s.initial_replicas).collect(),
        cores: services.iter().map(|s| s.cores).collect(),
    };
    move |_| {
        let replay = |manager: &mut dyn ResourceManager, rounds: usize| {
            for _ in 0..rounds {
                let mut plane = start.clone();
                for snap in &snapshots {
                    manager.on_tick(snap, &mut plane);
                }
            }
            (rounds * snapshots.len()) as u64
        };
        replay(&mut sinan.clone(), 10) + replay(&mut firm.clone(), 100)
    }
}

fn usage() -> ! {
    eprintln!("usage: profile_cells [canonical|ps_heavy|big|decisions] [reps]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cell = args.get(1).map(String::as_str).unwrap_or("ps_heavy");
    let (mut run, unit): (Box<dyn FnMut(u64) -> u64>, &str) = match cell {
        "canonical" => (Box::new(|rep| canonical(0xBE7C + rep)), "events"),
        "ps_heavy" => (Box::new(|rep| ps_heavy(0x9527 + rep)), "events"),
        "big" => (Box::new(|rep| big(0x816C + rep)), "events"),
        "decisions" => (Box::new(decisions()), "ticks"),
        _ => usage(),
    };
    let reps: u64 = match args.get(2) {
        None => 10,
        Some(raw) => raw.parse().unwrap_or_else(|_| usage()),
    };
    let mut total = 0u64;
    let t0 = std::time::Instant::now();
    for rep in 0..reps {
        total += run(rep);
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "{cell}: {total} {unit} in {dt:.3}s = {:.0} {unit}/s",
        total as f64 / dt
    );
}
