//! The branch-and-bound search tree, pinned.
//!
//! `solve` and `solve_greedy` promise more than the optimum: the same
//! incumbent, the same percentile choices and the same number of explored
//! nodes for a given model (`mip.nodes_explored` is a count the benchmark
//! compares exactly). The digests below were recorded at the commit before
//! the search core was rebuilt around a shared context (PR 18) and have to
//! survive every change that claims to keep the tree: a different float
//! fold order, tie-break, slack or branch order moves at least one of them.
//!
//! The test prints the whole table as computed; `cargo test` shows that
//! output when the test fails, so re-pinning after a change that moves the
//! tree on purpose is pasting the printed rows.

use ursa::mip::{
    solve, solve_greedy, LatencyMatrix, MipModel, ServiceModel, SlaConstraint, Solution,
};
use ursa::stats::rng::Rng;

/// The synthetic family of `benchmark/src/workloads/control.rs`
/// (`synthetic_model`), copied so the pinned instances are the ledger's.
fn synthetic_model(services: usize, options: usize, classes: usize, seed: u64) -> MipModel {
    let grid = vec![90.0, 95.0, 99.0, 99.5, 99.9];
    let mut rng = Rng::seed_from(seed);
    let svc: Vec<ServiceModel> = (0..services)
        .map(|s| {
            let resource: Vec<f64> = (0..options).map(|o| (options - o) as f64 * 2.0).collect();
            let latency = (0..classes)
                .map(|c| {
                    let participates = (s + c) % ((services / 5).max(1)) == 0 || rng.chance(0.25);
                    let participates = participates && (s % services) < 10;
                    participates.then(|| {
                        let base = 0.002 + 0.01 * rng.next_f64();
                        let data: Vec<f64> = (0..options)
                            .flat_map(|o| {
                                let row = base * (1.0 + 0.6 * o as f64);
                                (0..grid.len()).map(move |g| row * (1.0 + 0.4 * g as f64))
                            })
                            .collect();
                        LatencyMatrix::new(options, grid.len(), data)
                    })
                })
                .collect();
            ServiceModel {
                name: format!("s{s}"),
                resource,
                latency,
            }
        })
        .collect();
    // Full provisioning only: every service keeps its first option.
    let mut single = MipModel {
        percentiles: grid.clone(),
        services: svc.clone(),
        constraints: (0..classes)
            .map(|c| SlaConstraint {
                class: c,
                percentile: 99.0,
                target: 1e9,
            })
            .collect(),
    };
    for s in &mut single.services {
        s.resource.truncate(1);
        for m in s.latency.iter_mut().flatten() {
            *m = LatencyMatrix::new(1, grid.len(), m.row(0).to_vec());
        }
    }
    let best = solve_greedy(&single).expect("full provisioning is feasible");
    let constraints = (0..classes)
        .map(|c| SlaConstraint {
            class: c,
            percentile: 99.0,
            target: best.estimated_latency(&single, c) * 1.6,
        })
        .collect();
    MipModel {
        percentiles: grid,
        services: svc,
        constraints,
    }
}

/// FNV-1a over 64-bit words, little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    /// Objective bits, δ, then γ with each class's length in front.
    fn choices(&mut self, s: &Solution) {
        self.word(s.objective.to_bits());
        self.word(s.lpr_choice.len() as u64);
        s.lpr_choice.iter().for_each(|&a| self.word(a as u64));
        for betas in &s.percentile_choice {
            self.word(betas.len() as u64);
            betas.iter().for_each(|&b| self.word(b as u64));
        }
    }
}

fn exact_digest(s: &Solution) -> u64 {
    let mut h = Fnv::new();
    h.choices(s);
    h.word(u64::from(s.proved_optimal));
    h.word(s.nodes_explored);
    h.0
}

fn greedy_digest(s: &Solution) -> u64 {
    let mut h = Fnv::new();
    h.choices(s);
    h.0
}

/// `(services, options, classes, generator seed, solve digest, greedy digest)`.
/// Every shape runs at consecutive generator seeds from `0x317`; the first
/// two seeds of 16×10×6 and of 40×16×7 are the ledger's `control_replay`
/// corpus.
#[rustfmt::skip]
const PINNED: &[(usize, usize, usize, u64, u64, u64)] = &[
    (16, 10, 6, 0x317, 0xb6451bc2c3386e7d, 0x7585989db93b3bad),
    (16, 10, 6, 0x318, 0x2282dc38a12b0b48, 0x7e2b944a177f021d),
    (16, 10, 6, 0x319, 0x7a5653ecdbc75fd4, 0x806dd597e31afdbd),
    (16, 10, 6, 0x31a, 0x0bcb3b3caf48d922, 0x7bb260256a9e5145),
    (16, 10, 6, 0x31b, 0x6ea8481b6a57f4b5, 0x1937bfbadfa51a88),
    (16, 10, 6, 0x31c, 0x489d0472ec585dec, 0xcf98698096e1f16a),
    (16, 10, 6, 0x31d, 0xc32dba6cb735fcdf, 0x476ea274709ec6c1),
    (16, 10, 6, 0x31e, 0xfef18f66989c0086, 0x57e6c7d57f034b43),
    (40, 16, 7, 0x317, 0x90bd60ae2077f16c, 0x3f401e1b5ae3e4ca),
    (40, 16, 7, 0x318, 0xe7a3c0d7d342a4a5, 0xf58cb2f92c87310b),
    (9, 6, 7, 0x317, 0x827d872592b8bc73, 0xa0ead14eca3d5f9b),
    (9, 6, 7, 0x318, 0x23f31a5378328f67, 0xdeefea919de21b39),
    (9, 6, 7, 0x319, 0xfeeb1e4a5fe8b01c, 0xe1be6886092f8119),
    (9, 6, 7, 0x31a, 0xe0f48a30ae097ca8, 0xf87b2339adaa260d),
    (9, 6, 7, 0x31b, 0xa34f815176836a4a, 0x19a5f029f171146d),
    (9, 6, 7, 0x31c, 0xd8ec5b8db0ccdf34, 0xe4ac8701c5b5a4d9),
    (9, 6, 7, 0x31d, 0xc0e2ece18c038ad9, 0x504f1467788e7ed8),
    (9, 6, 7, 0x31e, 0x55c6c2b72f9f1bab, 0xf87b2339adaa260d),
    (9, 6, 7, 0x31f, 0x9a56e7ff20a1cd6c, 0x72bc5ff43207e3d9),
    (9, 6, 7, 0x320, 0x255d22ac34ab6305, 0x2e3351bf5c944438),
    (9, 6, 7, 0x321, 0x20bbd67210ba1379, 0xa11ed0ce97a790c0),
    (9, 6, 7, 0x322, 0xa6a633b4ad683928, 0xe4ac8701c5b5a4d9),
    (24, 8, 5, 0x317, 0xb1fc4d6a1f142464, 0x28f5b629d8c53435),
    (24, 8, 5, 0x318, 0x6db3afecaa228b94, 0x4cccf11b9de4d119),
    (24, 8, 5, 0x319, 0xa02c8212a355d098, 0x8ffb3250b51222dc),
    (24, 8, 5, 0x31a, 0x83f074403af243bb, 0xc68d97b375e2c8f7),
    (24, 8, 5, 0x31b, 0x0a14350583cbb06d, 0x1566525a5441bcb6),
    (24, 8, 5, 0x31c, 0x713ff9e377869603, 0xa8f482e24a41e03f),
    (24, 8, 5, 0x31d, 0x0abadd4edc1b08f0, 0xd6e64940a8bf9135),
    (24, 8, 5, 0x31e, 0x4b175486f2a001a4, 0x0cddf22cb826ca1b),
    (24, 8, 5, 0x31f, 0x01258a5bf0f45f20, 0x65122757e425b4d2),
    (24, 8, 5, 0x320, 0xbef812288cf0f9af, 0x21ae126cd8ba92f7),
    (5, 5, 2, 0x317, 0x701bb16cf36315b8, 0x9c93136818fe6d4d),
    (5, 5, 2, 0x318, 0x209125c11a9617fc, 0x6620f7f7beef5081),
    (5, 5, 2, 0x319, 0x35e3b7e15cbf36aa, 0xaaa108b24f817879),
    (5, 5, 2, 0x31a, 0x0459948ddeff7f01, 0xaaa108b24f817879),
    (5, 5, 2, 0x31b, 0xf3e36ebf4644ca20, 0xaaa108b24f817879),
    (5, 5, 2, 0x31c, 0x7d4a80a5615f19ed, 0x9c93136818fe6d4d),
    (5, 5, 2, 0x31d, 0x6b7485cf7fa866bf, 0x53787c367bf6d1d5),
    (5, 5, 2, 0x31e, 0x42ecceb9f6882671, 0xb14cafdca7b7d6e1),
    (5, 5, 2, 0x31f, 0x9504783af0e02b61, 0x6dcd0c556a3c384d),
    (5, 5, 2, 0x320, 0x7c2ae901ca78e12d, 0x2cf1cc11493a4ea1),
    (5, 5, 2, 0x321, 0x0b8ad6e8d7aab9a5, 0xa2e570cd7e57902d),
    (5, 5, 2, 0x322, 0x1447210157ff7d07, 0xc55ec99ef5c96435),
];

#[test]
fn search_tree_is_pinned() {
    assert!(PINNED.len() >= 40);
    let mut moved = Vec::new();
    for &(s, o, c, seed, exact_pin, greedy_pin) in PINNED {
        let model = synthetic_model(s, o, c, seed);
        let exact = solve(&model).expect("generated instances are feasible");
        let greedy = solve_greedy(&model).expect("generated instances are feasible");
        let (e, g) = (exact_digest(&exact), greedy_digest(&greedy));
        println!("    ({s}, {o}, {c}, {seed:#x}, {e:#018x}, {g:#018x}),");
        if (e, g) != (exact_pin, greedy_pin) {
            moved.push(format!(
                "{s}x{o}x{c} seed {seed:#x}: solve {e:#018x} (pinned {exact_pin:#018x}, {} nodes), \
                 greedy {g:#018x} (pinned {greedy_pin:#018x})",
                exact.nodes_explored
            ));
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
