//! The branch-and-bound search, pinned in two columns.
//!
//! `solve` and `solve_greedy` promise more than the optimum: the same
//! incumbent, the same percentile choices and the same verdict on
//! optimality for a given model, whatever the search prunes on the way.
//! The *decision* column digests exactly that (objective bits, δ, γ and
//! `proved_optimal`) and never moves: a different float fold order,
//! tie-break, slack or branch order moves at least one instance of it, as
//! does pruning an option that some incumbent of the search needed. The
//! *solve* column adds `nodes_explored`, so it also moves when the search
//! visits fewer nodes on its way to the same decisions; it is re-pinned
//! only together with a change that prunes on purpose. The benchmark does
//! not compare `mip.nodes_explored` across commits; within one run it
//! checks that every unit folds the same solutions, node counts included,
//! into its digest.
//!
//! The test prints the whole table as computed; `cargo test` shows that
//! output when the test fails, so re-pinning the solve column after a
//! change that prunes on purpose is pasting the printed rows — and
//! checking that the decision and greedy columns of the pasted rows are
//! the ones they replace.

use ursa::mip::{
    solve, solve_greedy, LatencyMatrix, MipModel, ServiceModel, SlaConstraint, Solution,
};
use ursa::stats::rng::Rng;
use Edge::{Boundary, Ledger, Unordered};

/// How an instance departs from the ledger's family.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Edge {
    /// The ledger's family as it is.
    Ledger,
    /// Each latency cell scaled by its own factor in [0.25, 1.75), and
    /// targets at 1.2× full provisioning's latency: no option is fastest in
    /// every column, so a service's minimum-mean-latency row (where the
    /// greedy descent starts) is not its per-column minimum.
    Unordered,
    /// Each class keeps only its first service, and its target is that
    /// service's latency at its second option minus 5e-13, inside the
    /// solver's 1e-12 slack: the cheapest assignment that meets it does so
    /// only through the slack.
    Boundary,
}

/// The synthetic family of `benchmark/src/workloads/control.rs`
/// (`synthetic_model`), copied so the [`Edge::Ledger`] instances are the
/// ledger's.
fn synthetic_model(
    services: usize,
    options: usize,
    classes: usize,
    seed: u64,
    edge: Edge,
) -> MipModel {
    let grid = vec![90.0, 95.0, 99.0, 99.5, 99.9];
    let mut rng = Rng::seed_from(seed);
    let mut svc: Vec<ServiceModel> = (0..services)
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
    if edge == Edge::Unordered {
        let mut rng = Rng::seed_from(!seed);
        for m in svc.iter_mut().flat_map(|s| s.latency.iter_mut().flatten()) {
            let data = (0..m.rows())
                .flat_map(|a| m.row(a).to_vec())
                .map(|l| l * (0.25 + 1.5 * rng.next_f64()))
                .collect();
            *m = LatencyMatrix::new(m.rows(), m.cols(), data);
        }
    }
    if edge == Edge::Boundary {
        for c in 0..classes {
            let members = svc.iter_mut().filter(|s| s.latency[c].is_some());
            members.skip(1).for_each(|s| s.latency[c] = None);
        }
    }
    // One option only: every service keeps its first (its second at the
    // boundary).
    let kept = usize::from(edge == Edge::Boundary);
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
            *m = LatencyMatrix::new(1, grid.len(), m.row(kept).to_vec());
        }
    }
    let best = solve_greedy(&single).expect("one option with no SLA is feasible");
    let constraints = (0..classes)
        .map(|c| SlaConstraint {
            class: c,
            percentile: 99.0,
            target: match edge {
                Edge::Ledger => best.estimated_latency(&single, c) * 1.6,
                Edge::Unordered => best.estimated_latency(&single, c) * 1.2,
                Edge::Boundary => best.estimated_latency(&single, c) - 5e-13,
            },
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

/// [`exact_digest`] without the node count: what `solve` decided.
fn decision_digest(s: &Solution) -> u64 {
    let mut h = Fnv::new();
    h.choices(s);
    h.word(u64::from(s.proved_optimal));
    h.0
}

fn greedy_digest(s: &Solution) -> u64 {
    let mut h = Fnv::new();
    h.choices(s);
    h.0
}

/// `(edge, services, options, classes, generator seed, solve digest,
/// greedy digest, decision digest)`.
type Row = (Edge, usize, usize, usize, u64, u64, u64, u64);

/// The pinned instances, one [`Row`] each. Every shape runs at consecutive
/// generator seeds from `0x317`; the first two seeds of 16×10×6 and of
/// 40×16×7 are the ledger's `control_replay` corpus. The [`Edge::Unordered`]
/// and [`Edge::Boundary`] rows are where a viability filter that assumes
/// too much goes wrong: one that checks an option against the services'
/// starting rows instead of their optimistic rows moves decisions among
/// the first, one that drops the 1e-12 slack among the second.
#[rustfmt::skip]
const PINNED: &[Row] = &[
    (Ledger, 16, 10, 6, 0x317, 0x47a1032c19dfd706, 0x7585989db93b3bad, 0x223b7d3d5f773829),
    (Ledger, 16, 10, 6, 0x318, 0x1c22021522e5c630, 0x7e2b944a177f021d, 0x8e1129d1ed480c87),
    (Ledger, 16, 10, 6, 0x319, 0x1c60fe2f4230e6b2, 0x806dd597e31afdbd, 0xf6d9e8e7e84d8a7f),
    (Ledger, 16, 10, 6, 0x31a, 0x3616877c3d374096, 0x7bb260256a9e5145, 0x085ed049ab51edf7),
    (Ledger, 16, 10, 6, 0x31b, 0x0b9e128164672e07, 0x1937bfbadfa51a88, 0xd60767baaddb05a9),
    (Ledger, 16, 10, 6, 0x31c, 0x813aa1afd721c464, 0xcf98698096e1f16a, 0x93301f5253ce0ccb),
    (Ledger, 16, 10, 6, 0x31d, 0xcb09611308a9809c, 0x476ea274709ec6c1, 0x60e82e4f772b1ec0),
    (Ledger, 16, 10, 6, 0x31e, 0x4475d2a2808d7dd8, 0x57e6c7d57f034b43, 0x32dd219229cbc782),
    (Ledger, 40, 16, 7, 0x317, 0xc3f0d098b201db22, 0x3f401e1b5ae3e4ca, 0x6e2963a21f082c2b),
    (Ledger, 40, 16, 7, 0x318, 0x09816babb21b2e5e, 0xf58cb2f92c87310b, 0x197c4ee8a718c389),
    (Ledger, 9, 6, 7, 0x317, 0x827d872592b8bc73, 0xa0ead14eca3d5f9b, 0xab8e4d7e32d1eae1),
    (Ledger, 9, 6, 7, 0x318, 0x23f31a5378328f67, 0xdeefea919de21b39, 0x8458d253c0075ea7),
    (Ledger, 9, 6, 7, 0x319, 0x5676d7117dd90d94, 0xe1be6886092f8119, 0x8458d253c0075ea7),
    (Ledger, 9, 6, 7, 0x31a, 0x82818556f0d1b9d1, 0xf87b2339adaa260d, 0x8458d253c0075ea7),
    (Ledger, 9, 6, 7, 0x31b, 0xa34f815176836a4a, 0x19a5f029f171146d, 0x8458d253c0075ea7),
    (Ledger, 9, 6, 7, 0x31c, 0xd8ec5b8db0ccdf34, 0xe4ac8701c5b5a4d9, 0x11cf6f2e917fef47),
    (Ledger, 9, 6, 7, 0x31d, 0xc0e2ece18c038ad9, 0x504f1467788e7ed8, 0x8458d253c0075ea7),
    (Ledger, 9, 6, 7, 0x31e, 0x55c6c2b72f9f1bab, 0xf87b2339adaa260d, 0x720837df546f0be5),
    (Ledger, 9, 6, 7, 0x31f, 0x9a56e7ff20a1cd6c, 0x72bc5ff43207e3d9, 0x6f4cb5958bf432a2),
    (Ledger, 9, 6, 7, 0x320, 0x255d22ac34ab6305, 0x2e3351bf5c944438, 0x0c4a9db69b95a667),
    (Ledger, 9, 6, 7, 0x321, 0x0012ba4b773942f9, 0xa11ed0ce97a790c0, 0x4104e158aaa072e1),
    (Ledger, 9, 6, 7, 0x322, 0xa6a633b4ad683928, 0xe4ac8701c5b5a4d9, 0x8458d253c0075ea7),
    (Ledger, 24, 8, 5, 0x317, 0x51ed2ff001752a26, 0x28f5b629d8c53435, 0xff28ea07b70ec2b4),
    (Ledger, 24, 8, 5, 0x318, 0x2e0dcf750e485c53, 0x4cccf11b9de4d119, 0x80104498cd1e1af1),
    (Ledger, 24, 8, 5, 0x319, 0xa02c8212a355d098, 0x8ffb3250b51222dc, 0x7f9a6122f0ba0758),
    (Ledger, 24, 8, 5, 0x31a, 0xb5570deac7d44702, 0xc68d97b375e2c8f7, 0xacaca36ef9fd03b6),
    (Ledger, 24, 8, 5, 0x31b, 0x6128f2576fa4d971, 0x1566525a5441bcb6, 0xf8c6cb9ee68ef333),
    (Ledger, 24, 8, 5, 0x31c, 0xe37e9e915e542b1b, 0xa8f482e24a41e03f, 0x8fb143136331d3fe),
    (Ledger, 24, 8, 5, 0x31d, 0x85be5c4241e112e8, 0xd6e64940a8bf9135, 0xec34af75b836bfb4),
    (Ledger, 24, 8, 5, 0x31e, 0xa1eb6501a704a113, 0x0cddf22cb826ca1b, 0x4f806c51933d55d1),
    (Ledger, 24, 8, 5, 0x31f, 0x78ab12f6ac5e6398, 0x65122757e425b4d2, 0x159f52f65e1e4d33),
    (Ledger, 24, 8, 5, 0x320, 0x954e37284b8fd80c, 0x21ae126cd8ba92f7, 0xf74a4201844c1174),
    (Ledger, 5, 5, 2, 0x317, 0x701bb16cf36315b8, 0x9c93136818fe6d4d, 0x2ddac91dc6580ecc),
    (Ledger, 5, 5, 2, 0x318, 0x209125c11a9617fc, 0x6620f7f7beef5081, 0x5366855627c83014),
    (Ledger, 5, 5, 2, 0x319, 0x35e3b7e15cbf36aa, 0xaaa108b24f817879, 0x93bf97fddafbe5e4),
    (Ledger, 5, 5, 2, 0x31a, 0x0459948ddeff7f01, 0xaaa108b24f817879, 0x3608b6b0a2b458b4),
    (Ledger, 5, 5, 2, 0x31b, 0xf3e36ebf4644ca20, 0xaaa108b24f817879, 0xc5e0c7089046c6a4),
    (Ledger, 5, 5, 2, 0x31c, 0x6320d1a8d0a69b46, 0x9c93136818fe6d4d, 0x2ddac91dc6580ecc),
    (Ledger, 5, 5, 2, 0x31d, 0x35dcaee95d8f0b38, 0x53787c367bf6d1d5, 0xa7f64eef80645454),
    (Ledger, 5, 5, 2, 0x31e, 0x42ecceb9f6882671, 0xb14cafdca7b7d6e1, 0xb784e4d31def72e0),
    (Ledger, 5, 5, 2, 0x31f, 0x9504783af0e02b61, 0x6dcd0c556a3c384d, 0xb4fcdecfa0fd39cc),
    (Ledger, 5, 5, 2, 0x320, 0x7c2ae901ca78e12d, 0x2cf1cc11493a4ea1, 0x2b943d71b07d6dea),
    (Ledger, 5, 5, 2, 0x321, 0xec900fdfccbb6f84, 0xa2e570cd7e57902d, 0xb77e59f752cb6774),
    (Ledger, 5, 5, 2, 0x322, 0x1447210157ff7d07, 0xc55ec99ef5c96435, 0x6c42374c7a78f2b4),
    (Boundary, 5, 5, 2, 0x317, 0x49fa29a104eefd51, 0x5ac16bed4f096731, 0x1f2f9aef1dda2d30),
    (Boundary, 5, 5, 2, 0x318, 0x49fa29a104eefd51, 0x5ac16bed4f096731, 0x1f2f9aef1dda2d30),
    (Boundary, 5, 5, 2, 0x319, 0x49fa29a104eefd51, 0x5ac16bed4f096731, 0x1f2f9aef1dda2d30),
    (Boundary, 5, 5, 2, 0x31a, 0x49fa29a104eefd51, 0x5ac16bed4f096731, 0x1f2f9aef1dda2d30),
    (Unordered, 9, 6, 7, 0x317, 0xc129e85d0e92a1f9, 0x83a4afd2b0b4dd43, 0x329c18f3a65b4c49),
    (Unordered, 9, 6, 7, 0x318, 0x59920b76daa5dd84, 0x261e1630cd110fba, 0xfb4effaf5b54151b),
    (Unordered, 9, 6, 7, 0x319, 0xf3273524ae2c48b9, 0x90f6177df822b4f9, 0x181bed4970679ba3),
    (Unordered, 9, 6, 7, 0x31a, 0xbdab46808fe1b210, 0x75dc11e1f476691b, 0xa74a615be0eb105a),
    (Unordered, 9, 6, 7, 0x31b, 0x37593026c9d6d80c, 0x8e0be387540c67b9, 0xe6ad13d7705c8eb8),
    (Unordered, 9, 6, 7, 0x31c, 0x983bd9a05cafaaef, 0x261e1630cd110fba, 0xddbe0b84ddadf322),
    (Unordered, 9, 6, 7, 0x31d, 0x65973f5178f710f1, 0x59a7871e3d575e82, 0x07bffe7e83e20ce3),
    (Unordered, 9, 6, 7, 0x31e, 0x455597c7de391989, 0xbaf5fff4c0033839, 0x069d9e51caf17200),
    (Boundary, 16, 10, 6, 0x317, 0xacbe9afe5a800025, 0x901efe7d407f1505, 0x10b90964d330dd84),
    (Boundary, 16, 10, 6, 0x318, 0xacbe9afe5a800025, 0x901efe7d407f1505, 0x10b90964d330dd84),
    (Boundary, 16, 10, 6, 0x319, 0x59e82ffbfcb29489, 0xe21c40cea9557069, 0x37df506687998d68),
    (Boundary, 16, 10, 6, 0x31a, 0x59e82ffbfcb29489, 0xe21c40cea9557069, 0x37df506687998d68),
    (Unordered, 24, 8, 5, 0x317, 0x2812510e3e27efe1, 0x4fa57fd1484d9147, 0xbe59752511116d9d),
    (Unordered, 24, 8, 5, 0x318, 0xdfa2229bfd21ce06, 0xab7af839e271f136, 0x31b6d2a678c2fe17),
    (Unordered, 24, 8, 5, 0x319, 0xcaa90bd44c31b08e, 0x10b68728c9349b31, 0x447b238c6666ca2e),
    (Unordered, 24, 8, 5, 0x31a, 0xec4e822226379f8f, 0x427233762316fef5, 0xb28da04d70b39351),
    (Unordered, 24, 8, 5, 0x31b, 0x73b159516d14357f, 0x73e0ce872757a726, 0xdcb3d7433f0dcb44),
    (Unordered, 24, 8, 5, 0x31c, 0x9006db0fd4fe6758, 0xee71924843a7a061, 0x8157b801a6976c60),
    (Unordered, 24, 8, 5, 0x31d, 0x2e7a740a9cde4378, 0xb2532c38475acfe0, 0xae39fe9ecc2b04be),
    (Unordered, 24, 8, 5, 0x31e, 0x67b56e553fd76302, 0x251df7f08b9bb4fc, 0xa8caf1b1db96769d),
];

#[test]
fn search_tree_is_pinned() {
    assert!(PINNED.len() >= 60);
    let mut moved = Vec::new();
    for &(edge, s, o, c, seed, exact_pin, greedy_pin, decision_pin) in PINNED {
        let model = synthetic_model(s, o, c, seed, edge);
        let exact = solve(&model).expect("generated instances are feasible");
        let greedy = solve_greedy(&model).expect("generated instances are feasible");
        let (e, g, d) = (
            exact_digest(&exact),
            greedy_digest(&greedy),
            decision_digest(&exact),
        );
        println!("    ({edge:?}, {s}, {o}, {c}, {seed:#x}, {e:#018x}, {g:#018x}, {d:#018x}),");
        if (e, g, d) != (exact_pin, greedy_pin, decision_pin) {
            moved.push(format!(
                "{edge:?} {s}x{o}x{c} seed {seed:#x}: solve {e:#018x} (pinned {exact_pin:#018x}, {} nodes), \
                 greedy {g:#018x} (pinned {greedy_pin:#018x}), \
                 decision {d:#018x} (pinned {decision_pin:#018x})",
                exact.nodes_explored
            ));
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
