//! Standalone driver for the three engine cells whose work counts
//! `tests/ps_reference.rs` pins (canonical, ps_heavy and big), sized for
//! external profilers: long enough runs to dominate startup, no harness
//! timing logic in the way. `big`, 63 services with a queue ~200 deep, is
//! the one deep-queue regime: no ledger workload reaches it. The engine
//! does not time itself (DESIGN.md §6, "Engine cost model, measured from
//! outside"); this is how to ask where its time goes.
//!
//! ```sh
//! cargo build --release -p ursa-bench --example profile_cells
//! cd target/release/examples      # usage: profile_cells [canonical|ps_heavy|big] [reps]
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

fn usage() -> ! {
    eprintln!("usage: profile_cells [canonical|ps_heavy|big] [reps]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cell = args.get(1).map(String::as_str).unwrap_or("ps_heavy");
    let run: fn(u64) -> u64 = match cell {
        "canonical" => |rep| canonical(0xBE7C + rep),
        "ps_heavy" => |rep| ps_heavy(0x9527 + rep),
        "big" => |rep| big(0x816C + rep),
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
        "{cell}: {total} events in {dt:.3}s = {:.0} ev/s",
        total as f64 / dt
    );
}
