//! Golden digests of the symbolic analysis.
//!
//! `analyze` no longer builds a permuted copy of the pattern and counts the
//! factor's columns with the skeleton-leaf algorithm instead of the
//! row-subtree walk; the old pipeline was deleted, so there is no second
//! implementation to compare against. Instead, every digest below was
//! **recorded at the parent commit `7e70f47`** with this same file and must
//! never change: the rewrite is bit-for-bit or it is wrong.
//!
//! What is hashed (FNV-1a, 64 bit): every field of the `SymbolicFactor` —
//! `n`, the permutation (old → new), the partition (`sn_ptr`,
//! `col_to_sn`), `sn_parent`, `col_parent`, `rows_ptr`, `rows`,
//! `blocks_ptr`, every block's `(sn, rows_begin, rows_end)` and
//! `true_mask` — each array prefixed by its length.
//!
//! Re-recording: a change that is *meant* to move the analysis (a new
//! ordering, another relaxation rule) fails `digests_match_the_parent_commit`,
//! whose panic prints the whole table as it computes it now. Check that the
//! moved lines are the ones the change should move, paste the table over
//! `GOLDEN`, and name the new parent commit above.

use pselinv_order::nd::NdOptions;
use pselinv_order::supernodes::SupernodeOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice, SymbolicFactor};
use pselinv_sparse::gen::{self, Geometry};
use pselinv_sparse::{SparseMatrix, TripletMatrix};
use std::fmt::Write as _;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for x in v.to_le_bytes() {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usizes(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| self.u64(x as u64));
    }

    fn symbolic(&mut self, sf: &SymbolicFactor) {
        self.u64(sf.n as u64);
        self.usizes(sf.perm.new_of_old());
        self.usizes(&sf.part.sn_ptr);
        self.usizes(&sf.part.col_to_sn);
        self.usizes(&sf.sn_parent);
        self.usizes(&sf.col_parent);
        self.usizes(&sf.rows_ptr);
        self.usizes(&sf.rows);
        self.usizes(&sf.blocks_ptr);
        self.u64(sf.blocks.len() as u64);
        for b in &sf.blocks {
            self.u64(b.sn as u64);
            self.u64(b.rows_begin as u64);
            self.u64(b.rows_end as u64);
        }
        self.u64(sf.true_mask.len() as u64);
        sf.true_mask.iter().for_each(|&t| self.u64(t as u64));
    }
}

/// A block-diagonal matrix: a 2-D Laplacian beside a random SPD block, no
/// entry between them (the elimination forest has at least two trees).
fn two_blocks() -> SparseMatrix {
    let lap = gen::grid_laplacian_2d(6, 5).matrix;
    let spd = gen::random_spd(20, 0.15, 9);
    let n = lap.nrows();
    let mut t = TripletMatrix::new(n + spd.nrows(), n + spd.nrows());
    for (i, j, v) in lap.iter() {
        t.push(i, j, v);
    }
    for (i, j, v) in spd.iter() {
        t.push(n + i, n + j, v);
    }
    t.to_csc()
}

/// A structure to analyze, with the geometry nested dissection needs
/// (`None`: minimum degree and the natural order only).
struct Structure {
    label: String,
    matrix: SparseMatrix,
    geometry: Option<(Geometry, NdOptions)>,
}

fn structures() -> Vec<Structure> {
    let with_geometry = |label: &str, w: gen::Workload, nd: NdOptions| Structure {
        label: label.to_string(),
        matrix: w.matrix,
        geometry: Some((w.geometry, nd)),
    };
    let line = |n: usize| Geometry { dims: [n, 1, 1], dof: 1 };
    let mut out = vec![
        with_geometry("lap2d-20x15", gen::grid_laplacian_2d(20, 15), NdOptions { leaf_size: 8 }),
        with_geometry("lap3d-7x6x5", gen::grid_laplacian_3d(7, 6, 5), NdOptions::default()),
        with_geometry("fem3d-5x5x4", gen::fem_3d(5, 5, 4, 3, 1), NdOptions::default()),
        with_geometry("dg-3x3x2", gen::dg_hamiltonian(3, 3, 2, 6, 5), NdOptions { leaf_size: 2 }),
        with_geometry(
            "dg-6x6x2",
            gen::dg_hamiltonian(6, 6, 2, 24, 101),
            NdOptions { leaf_size: 1 },
        ),
    ];
    for seed in 0..4 {
        out.push(Structure {
            label: format!("spd80-{seed}"),
            matrix: gen::random_spd(80, 0.06, seed),
            geometry: None,
        });
    }
    out.push(Structure {
        label: "one".to_string(),
        matrix: SparseMatrix::identity(1),
        geometry: Some((line(1), NdOptions::default())),
    });
    out.push(Structure {
        label: "diagonal-12".to_string(),
        matrix: SparseMatrix::identity(12),
        geometry: Some((line(12), NdOptions { leaf_size: 1 })),
    });
    out.push(Structure { label: "two-blocks".to_string(), matrix: two_blocks(), geometry: None });
    out
}

/// Supernode options: relaxed (the default), the fundamental partition,
/// and the options `scale-p4096` analyzes with.
fn supernode_options() -> [(&'static str, SupernodeOptions); 3] {
    [
        ("relaxed", SupernodeOptions::default()),
        (
            "fundamental",
            SupernodeOptions { max_width: 0, relax_small: 0, relax_zero_fraction: 0.0 },
        ),
        ("scale", SupernodeOptions { max_width: 48, relax_small: 12, relax_zero_fraction: 0.3 }),
    ]
}

fn table() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for s in structures() {
        let pattern = s.matrix.pattern();
        let mut orderings =
            vec![("md", OrderingChoice::MinimumDegree), ("natural", OrderingChoice::Natural)];
        if let Some((geometry, nd)) = s.geometry {
            orderings.insert(0, ("nd", OrderingChoice::NestedDissection(geometry, nd)));
        }
        for (ordering_label, ordering) in orderings {
            for (sn_label, supernode) in supernode_options() {
                for track_true_structure in [true, false] {
                    let opts = AnalyzeOptions { ordering, supernode, track_true_structure };
                    let mut h = Fnv::new();
                    h.symbolic(&analyze(&pattern, &opts));
                    let track = if track_true_structure { "mask" } else { "nomask" };
                    out.push((format!("{}/{ordering_label}/{sn_label}/{track}", s.label), h.0));
                }
            }
        }
    }
    out
}

#[test]
fn digests_match_the_parent_commit() {
    let actual = table();
    let same = actual.len() == GOLDEN.len()
        && actual.iter().zip(GOLDEN).all(|((la, da), (lg, dg))| la == lg && da == dg);
    if same {
        return;
    }
    let mut table = String::new();
    for (label, digest) in &actual {
        writeln!(table, "    (\"{label}\", 0x{digest:016x}),").unwrap();
    }
    let moved: Vec<&str> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|((la, da), (lg, dg))| la != lg || da != dg)
        .map(|((la, _), _)| la.as_str())
        .collect();
    panic!(
        "{} of {} digests differ from the ones recorded at the parent commit (first: {:?}). \
         Computed now:\n{table}",
        moved.len().max(actual.len().abs_diff(GOLDEN.len())),
        GOLDEN.len(),
        moved.first()
    );
}

#[test]
fn the_table_is_not_degenerate() {
    // Options may coincide on one structure (a 1×1 matrix has one
    // analysis), but two structures never share a digest.
    let mut per_structure: Vec<(&str, u64)> =
        GOLDEN.iter().map(|&(label, d)| (label.split('/').next().unwrap(), d)).collect();
    per_structure.sort_unstable();
    per_structure.dedup();
    let mut digests: Vec<u64> = per_structure.iter().map(|&(_, d)| d).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), per_structure.len(), "two structures share a digest");
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("lap2d-20x15/nd/relaxed/mask", 0x1e4e8f7a923e3236),
    ("lap2d-20x15/nd/relaxed/nomask", 0x7761045ca4aa17db),
    ("lap2d-20x15/nd/fundamental/mask", 0x7d5cd49467ebdca6),
    ("lap2d-20x15/nd/fundamental/nomask", 0xbcc6a9c4e2b40de4),
    ("lap2d-20x15/nd/scale/mask", 0x1e4e8f7a923e3236),
    ("lap2d-20x15/nd/scale/nomask", 0x7761045ca4aa17db),
    ("lap2d-20x15/md/relaxed/mask", 0xd5faaee0f97554f6),
    ("lap2d-20x15/md/relaxed/nomask", 0xe06b5b8b436f6ce0),
    ("lap2d-20x15/md/fundamental/mask", 0x1618371e5c9b6a1f),
    ("lap2d-20x15/md/fundamental/nomask", 0x5bef7a958f6dd416),
    ("lap2d-20x15/md/scale/mask", 0xad60f5db4aaea172),
    ("lap2d-20x15/md/scale/nomask", 0x7d530d7ead3bd5f4),
    ("lap2d-20x15/natural/relaxed/mask", 0xe0e31b444dac0e8e),
    ("lap2d-20x15/natural/relaxed/nomask", 0x694dce65b759075e),
    ("lap2d-20x15/natural/fundamental/mask", 0x5dc2c51255ebede9),
    ("lap2d-20x15/natural/fundamental/nomask", 0x9952d2aa25b5cb1e),
    ("lap2d-20x15/natural/scale/mask", 0x04692231434b929d),
    ("lap2d-20x15/natural/scale/nomask", 0xba9852b55c5b7fa5),
    ("lap3d-7x6x5/nd/relaxed/mask", 0xfea2f1b023841e3f),
    ("lap3d-7x6x5/nd/relaxed/nomask", 0x9d47789114346d1b),
    ("lap3d-7x6x5/nd/fundamental/mask", 0x25da9e73b3db8eeb),
    ("lap3d-7x6x5/nd/fundamental/nomask", 0xaeb4b93cf9d039cd),
    ("lap3d-7x6x5/nd/scale/mask", 0xfea2f1b023841e3f),
    ("lap3d-7x6x5/nd/scale/nomask", 0x9d47789114346d1b),
    ("lap3d-7x6x5/md/relaxed/mask", 0xe23e624d889663a9),
    ("lap3d-7x6x5/md/relaxed/nomask", 0x6d17d4eca4abae41),
    ("lap3d-7x6x5/md/fundamental/mask", 0xcc70bbddd4edc3cf),
    ("lap3d-7x6x5/md/fundamental/nomask", 0xd65ce45dcf38622e),
    ("lap3d-7x6x5/md/scale/mask", 0x6b7aa5354fcb71ac),
    ("lap3d-7x6x5/md/scale/nomask", 0xe6c531edc4253e92),
    ("lap3d-7x6x5/natural/relaxed/mask", 0xc4b1ec1338689192),
    ("lap3d-7x6x5/natural/relaxed/nomask", 0xd942ef26158d430c),
    ("lap3d-7x6x5/natural/fundamental/mask", 0x30fe7605daff6272),
    ("lap3d-7x6x5/natural/fundamental/nomask", 0x4a039048d44f68b1),
    ("lap3d-7x6x5/natural/scale/mask", 0xc0f628c3e6c8869c),
    ("lap3d-7x6x5/natural/scale/nomask", 0xe097836516078ab4),
    ("fem3d-5x5x4/nd/relaxed/mask", 0xf8aee7579f0ff38b),
    ("fem3d-5x5x4/nd/relaxed/nomask", 0xb474f718e1466446),
    ("fem3d-5x5x4/nd/fundamental/mask", 0x35adba0e6d74dda2),
    ("fem3d-5x5x4/nd/fundamental/nomask", 0x302b1edd7c64df0f),
    ("fem3d-5x5x4/nd/scale/mask", 0xf8aee7579f0ff38b),
    ("fem3d-5x5x4/nd/scale/nomask", 0xb474f718e1466446),
    ("fem3d-5x5x4/md/relaxed/mask", 0x172418b849fddbce),
    ("fem3d-5x5x4/md/relaxed/nomask", 0xa5fe4d84bbd69163),
    ("fem3d-5x5x4/md/fundamental/mask", 0x0a940c125c3bca6b),
    ("fem3d-5x5x4/md/fundamental/nomask", 0xf6d60f06283b99d8),
    ("fem3d-5x5x4/md/scale/mask", 0x172418b849fddbce),
    ("fem3d-5x5x4/md/scale/nomask", 0xa5fe4d84bbd69163),
    ("fem3d-5x5x4/natural/relaxed/mask", 0xc79f2656342d0bb4),
    ("fem3d-5x5x4/natural/relaxed/nomask", 0x9e142936a6729f1b),
    ("fem3d-5x5x4/natural/fundamental/mask", 0xc3f55257f81a0296),
    ("fem3d-5x5x4/natural/fundamental/nomask", 0x7da4d22bd0c42a38),
    ("fem3d-5x5x4/natural/scale/mask", 0x6761e64d11d88669),
    ("fem3d-5x5x4/natural/scale/nomask", 0x732511119ad57176),
    ("dg-3x3x2/nd/relaxed/mask", 0xfdaa3dac1f3b6232),
    ("dg-3x3x2/nd/relaxed/nomask", 0x5e2911e18b524aa6),
    ("dg-3x3x2/nd/fundamental/mask", 0xc9bf93099f2aa017),
    ("dg-3x3x2/nd/fundamental/nomask", 0xbbcaa062ef294e68),
    ("dg-3x3x2/nd/scale/mask", 0x7dc84763922ef44e),
    ("dg-3x3x2/nd/scale/nomask", 0x78a1c79b5ebae036),
    ("dg-3x3x2/md/relaxed/mask", 0x712b3e13c5630487),
    ("dg-3x3x2/md/relaxed/nomask", 0x9c2b4d787e2d76ad),
    ("dg-3x3x2/md/fundamental/mask", 0x7304fbedd8e61ebf),
    ("dg-3x3x2/md/fundamental/nomask", 0xc2b3e328bd47154a),
    ("dg-3x3x2/md/scale/mask", 0x712b3e13c5630487),
    ("dg-3x3x2/md/scale/nomask", 0x9c2b4d787e2d76ad),
    ("dg-3x3x2/natural/relaxed/mask", 0x3dad50074e4385ce),
    ("dg-3x3x2/natural/relaxed/nomask", 0x8f3b3230c9f75b18),
    ("dg-3x3x2/natural/fundamental/mask", 0xc1059bb336a5852a),
    ("dg-3x3x2/natural/fundamental/nomask", 0xd33a25acee3be8d5),
    ("dg-3x3x2/natural/scale/mask", 0x9fc2a1b196349531),
    ("dg-3x3x2/natural/scale/nomask", 0xaa726f45812caa25),
    ("dg-6x6x2/nd/relaxed/mask", 0xeca47014249e013f),
    ("dg-6x6x2/nd/relaxed/nomask", 0xa37385a697e4be89),
    ("dg-6x6x2/nd/fundamental/mask", 0x2e44dce5771a034e),
    ("dg-6x6x2/nd/fundamental/nomask", 0x34b905089fcd4618),
    ("dg-6x6x2/nd/scale/mask", 0x28607486a74270ba),
    ("dg-6x6x2/nd/scale/nomask", 0xdb912514e7a17a1b),
    ("dg-6x6x2/md/relaxed/mask", 0xd86d7947d586d764),
    ("dg-6x6x2/md/relaxed/nomask", 0x13df07a0ccc4e3bf),
    ("dg-6x6x2/md/fundamental/mask", 0xb458bddff4f9fbfb),
    ("dg-6x6x2/md/fundamental/nomask", 0x7b5bd129e8562ab3),
    ("dg-6x6x2/md/scale/mask", 0xf3edb79eb41904f8),
    ("dg-6x6x2/md/scale/nomask", 0x71575400c0610296),
    ("dg-6x6x2/natural/relaxed/mask", 0x4348e0a91684e719),
    ("dg-6x6x2/natural/relaxed/nomask", 0xbda7ffdce68c3228),
    ("dg-6x6x2/natural/fundamental/mask", 0x2866350273228f1a),
    ("dg-6x6x2/natural/fundamental/nomask", 0x125c6b53fdefa27e),
    ("dg-6x6x2/natural/scale/mask", 0x280876422b741165),
    ("dg-6x6x2/natural/scale/nomask", 0x65f9a244dcba808c),
    ("spd80-0/md/relaxed/mask", 0xbb1a26699c4a9584),
    ("spd80-0/md/relaxed/nomask", 0x21b3c623385f13c8),
    ("spd80-0/md/fundamental/mask", 0x89fb56ad3ce5e7ac),
    ("spd80-0/md/fundamental/nomask", 0x0babde7fc48f0481),
    ("spd80-0/md/scale/mask", 0xbb1a26699c4a9584),
    ("spd80-0/md/scale/nomask", 0x21b3c623385f13c8),
    ("spd80-0/natural/relaxed/mask", 0x8dcbb579c022a2ae),
    ("spd80-0/natural/relaxed/nomask", 0x5f3a91754f49a66a),
    ("spd80-0/natural/fundamental/mask", 0x819c6709a56419f5),
    ("spd80-0/natural/fundamental/nomask", 0x33cb1d7a4c935951),
    ("spd80-0/natural/scale/mask", 0x363a9716f09eec8b),
    ("spd80-0/natural/scale/nomask", 0x4f650cd688661a23),
    ("spd80-1/md/relaxed/mask", 0x5ca848ee916a48d8),
    ("spd80-1/md/relaxed/nomask", 0x218e33f3673cc58c),
    ("spd80-1/md/fundamental/mask", 0x71505b69dedeee41),
    ("spd80-1/md/fundamental/nomask", 0x0d25ee254f014b64),
    ("spd80-1/md/scale/mask", 0x5ca848ee916a48d8),
    ("spd80-1/md/scale/nomask", 0x218e33f3673cc58c),
    ("spd80-1/natural/relaxed/mask", 0xadc0b85b62599587),
    ("spd80-1/natural/relaxed/nomask", 0xb7650d2ad824e6f5),
    ("spd80-1/natural/fundamental/mask", 0x74a17386546180a8),
    ("spd80-1/natural/fundamental/nomask", 0x1bad60a7ee510a9e),
    ("spd80-1/natural/scale/mask", 0x32ddf48c8845d03f),
    ("spd80-1/natural/scale/nomask", 0x0200ec1d5a4b2f0f),
    ("spd80-2/md/relaxed/mask", 0x1769a60a99a474d4),
    ("spd80-2/md/relaxed/nomask", 0x954826f91cb95892),
    ("spd80-2/md/fundamental/mask", 0x5c67c6930db86d97),
    ("spd80-2/md/fundamental/nomask", 0xc15d58acab0f11b6),
    ("spd80-2/md/scale/mask", 0x1769a60a99a474d4),
    ("spd80-2/md/scale/nomask", 0x954826f91cb95892),
    ("spd80-2/natural/relaxed/mask", 0xb3a002ac6a1ca5d7),
    ("spd80-2/natural/relaxed/nomask", 0x5291571c9f4c54af),
    ("spd80-2/natural/fundamental/mask", 0x2b25452c0c4bccfa),
    ("spd80-2/natural/fundamental/nomask", 0x9f61795dc9657b8e),
    ("spd80-2/natural/scale/mask", 0x8ed39f4e762a0242),
    ("spd80-2/natural/scale/nomask", 0x42ae2fb246c7fa3e),
    ("spd80-3/md/relaxed/mask", 0xda4b79f75a5b3c42),
    ("spd80-3/md/relaxed/nomask", 0x2c5645722d9229fa),
    ("spd80-3/md/fundamental/mask", 0x30d0c3c9f07c0811),
    ("spd80-3/md/fundamental/nomask", 0x0b25bec4f30bc17e),
    ("spd80-3/md/scale/mask", 0xda4b79f75a5b3c42),
    ("spd80-3/md/scale/nomask", 0x2c5645722d9229fa),
    ("spd80-3/natural/relaxed/mask", 0x76020adb4503547e),
    ("spd80-3/natural/relaxed/nomask", 0x8d6634cee6d4e7c2),
    ("spd80-3/natural/fundamental/mask", 0xd558882b7b7cbd67),
    ("spd80-3/natural/fundamental/nomask", 0x01367a8f3fd45218),
    ("spd80-3/natural/scale/mask", 0x33c585c01c8d8a32),
    ("spd80-3/natural/scale/nomask", 0xaad673751b993ea4),
    ("one/nd/relaxed/mask", 0x647f412e3ff71a37),
    ("one/nd/relaxed/nomask", 0x647f412e3ff71a37),
    ("one/nd/fundamental/mask", 0x647f412e3ff71a37),
    ("one/nd/fundamental/nomask", 0x647f412e3ff71a37),
    ("one/nd/scale/mask", 0x647f412e3ff71a37),
    ("one/nd/scale/nomask", 0x647f412e3ff71a37),
    ("one/md/relaxed/mask", 0x647f412e3ff71a37),
    ("one/md/relaxed/nomask", 0x647f412e3ff71a37),
    ("one/md/fundamental/mask", 0x647f412e3ff71a37),
    ("one/md/fundamental/nomask", 0x647f412e3ff71a37),
    ("one/md/scale/mask", 0x647f412e3ff71a37),
    ("one/md/scale/nomask", 0x647f412e3ff71a37),
    ("one/natural/relaxed/mask", 0x647f412e3ff71a37),
    ("one/natural/relaxed/nomask", 0x647f412e3ff71a37),
    ("one/natural/fundamental/mask", 0x647f412e3ff71a37),
    ("one/natural/fundamental/nomask", 0x647f412e3ff71a37),
    ("one/natural/scale/mask", 0x647f412e3ff71a37),
    ("one/natural/scale/nomask", 0x647f412e3ff71a37),
    ("diagonal-12/nd/relaxed/mask", 0x0210e00ac5e13708),
    ("diagonal-12/nd/relaxed/nomask", 0x0210e00ac5e13708),
    ("diagonal-12/nd/fundamental/mask", 0x0210e00ac5e13708),
    ("diagonal-12/nd/fundamental/nomask", 0x0210e00ac5e13708),
    ("diagonal-12/nd/scale/mask", 0x0210e00ac5e13708),
    ("diagonal-12/nd/scale/nomask", 0x0210e00ac5e13708),
    ("diagonal-12/md/relaxed/mask", 0xa393b6372663c908),
    ("diagonal-12/md/relaxed/nomask", 0xa393b6372663c908),
    ("diagonal-12/md/fundamental/mask", 0xa393b6372663c908),
    ("diagonal-12/md/fundamental/nomask", 0xa393b6372663c908),
    ("diagonal-12/md/scale/mask", 0xa393b6372663c908),
    ("diagonal-12/md/scale/nomask", 0xa393b6372663c908),
    ("diagonal-12/natural/relaxed/mask", 0xcbb059b29f063108),
    ("diagonal-12/natural/relaxed/nomask", 0xcbb059b29f063108),
    ("diagonal-12/natural/fundamental/mask", 0xcbb059b29f063108),
    ("diagonal-12/natural/fundamental/nomask", 0xcbb059b29f063108),
    ("diagonal-12/natural/scale/mask", 0xcbb059b29f063108),
    ("diagonal-12/natural/scale/nomask", 0xcbb059b29f063108),
    ("two-blocks/md/relaxed/mask", 0x7d498567f7ec2bc2),
    ("two-blocks/md/relaxed/nomask", 0x33fdceff75c02478),
    ("two-blocks/md/fundamental/mask", 0x9b85257d9e08cf54),
    ("two-blocks/md/fundamental/nomask", 0xc6406b73c6ae1618),
    ("two-blocks/md/scale/mask", 0x7d498567f7ec2bc2),
    ("two-blocks/md/scale/nomask", 0x33fdceff75c02478),
    ("two-blocks/natural/relaxed/mask", 0x687bfd4c3fb2cbdf),
    ("two-blocks/natural/relaxed/nomask", 0x283673fdf7fc7093),
    ("two-blocks/natural/fundamental/mask", 0xce07bd62042134dd),
    ("two-blocks/natural/fundamental/nomask", 0xdb60732f4595c0a3),
    ("two-blocks/natural/scale/mask", 0x687bfd4c3fb2cbdf),
    ("two-blocks/natural/scale/nomask", 0x283673fdf7fc7093),
];
