//! Golden digests of the grid generators.
//!
//! Every other golden suite (`order`, `factor`, `dist`, `des`) and every
//! benchmark number starts from a matrix these generators build, so their
//! output is pinned bit for bit: each digest below was **recorded at the
//! parent commit `1df5d8f`**, when the generators still assembled through
//! `TripletMatrix`, and must never change.
//!
//! What is hashed (FNV-1a, 64 bit): the matrix's `nrows`, `ncols`,
//! `col_ptr`, `row_idx` and the bits of every value, each array prefixed by
//! its length, then the geometry (`dims`, `dof`). One line covers one
//! generator on one grid shape, with every `dof`/`b` in 1..=3 and both
//! seeds folded in; the last lines are the benchmark's own inputs.
//!
//! Re-recording: a change that is *meant* to move a generator fails
//! `digests_match_the_parent_commit`, whose panic prints the whole table as
//! it computes it now. Check that the moved lines are the ones the change
//! should move, paste the table over `GOLDEN`, and name the new parent
//! commit above.

use pselinv_sparse::gen::{self, Workload};
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

    fn workload(&mut self, w: &Workload) {
        let m = &w.matrix;
        self.u64(m.nrows() as u64);
        self.u64(m.ncols() as u64);
        self.usizes(m.col_ptr());
        self.usizes(m.row_idx());
        self.u64(m.values().len() as u64);
        m.values().iter().for_each(|v| self.u64(v.to_bits()));
        self.usizes(&w.geometry.dims);
        self.u64(w.geometry.dof as u64);
    }
}

const SEEDS: [u64; 2] = [7, 0x5e11];

fn digest(workloads: impl IntoIterator<Item = Workload>) -> u64 {
    let mut h = Fnv::new();
    workloads.into_iter().for_each(|w| h.workload(&w));
    h.0
}

fn table() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let dims = 1..=4usize;
    for ny in dims.clone() {
        for nx in dims.clone() {
            out.push((format!("lap2d/{nx}x{ny}"), digest([gen::grid_laplacian_2d(nx, ny)])));
        }
    }
    for nz in dims.clone() {
        for ny in dims.clone() {
            for nx in dims.clone() {
                let shape = format!("{nx}x{ny}x{nz}");
                out.push((format!("lap3d/{shape}"), digest([gen::grid_laplacian_3d(nx, ny, nz)])));
                let per_dof = |f: fn(usize, usize, usize, usize, u64) -> Workload| {
                    digest((1..=3).flat_map(|d| SEEDS.map(|s| f(nx, ny, nz, d, s))))
                };
                out.push((format!("fem3d/{shape}"), per_dof(gen::fem_3d)));
                out.push((format!("dg/{shape}"), per_dof(gen::dg_hamiltonian)));
            }
        }
    }
    // The benchmark's inputs: `lap2d-msgs`, `poles-latency`, `fem3d-kernel`
    // and `scale-p4096`, at the committed seed 101 and one other.
    out.push(("bench/lap2d-200x200".into(), digest([gen::grid_laplacian_2d(200, 200)])));
    out.push(("bench/lap2d-120x120".into(), digest([gen::grid_laplacian_2d(120, 120)])));
    for s in [101, 0x5e11] {
        out.push((
            format!("bench/fem3d-18x18x18-dof3/{s}"),
            digest([gen::fem_3d(18, 18, 18, 3, s)]),
        ));
        out.push((
            format!("bench/dg-16x16x4-b24/{s}"),
            digest([gen::dg_hamiltonian(16, 16, 4, 24, s)]),
        ));
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
    let mut digests: Vec<u64> = GOLDEN.iter().map(|&(_, d)| d).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), GOLDEN.len(), "two lines share a digest");
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("lap2d/1x1", 0xccbbd5076885ac26),
    ("lap2d/2x1", 0xdd2dcaaa9ec4aa18),
    ("lap2d/3x1", 0x70bf207a422974de),
    ("lap2d/4x1", 0xbee3a25756327b20),
    ("lap2d/1x2", 0xbbded45584510038),
    ("lap2d/2x2", 0xbbbfe47285a9e14b),
    ("lap2d/3x2", 0x85444eea9bcfeac2),
    ("lap2d/4x2", 0x0317af1378eb4359),
    ("lap2d/1x3", 0xb35d0d247710c89e),
    ("lap2d/2x3", 0x510570245ad04ec4),
    ("lap2d/3x3", 0xb28ac341a3af7c56),
    ("lap2d/4x3", 0xfcf537c52fbf0b36),
    ("lap2d/1x4", 0x5af6bf5806d77d80),
    ("lap2d/2x4", 0x67d90d7e692c98e1),
    ("lap2d/3x4", 0xa6cbced5b9dd902e),
    ("lap2d/4x4", 0x73215b682fc0b29f),
    ("lap3d/1x1x1", 0x7f0b9566b959ac5e),
    ("fem3d/1x1x1", 0xc34cbbf33b3c481d),
    ("dg/1x1x1", 0x101cf87544c5e40d),
    ("lap3d/2x1x1", 0xca530e587c88f688),
    ("fem3d/2x1x1", 0x02b1ce109cae4591),
    ("dg/2x1x1", 0x1073607637a93a61),
    ("lap3d/3x1x1", 0x24e7c5d6ba314a56),
    ("fem3d/3x1x1", 0x8eb47f4ae1b74bcd),
    ("dg/3x1x1", 0x69dfa66e56058d75),
    ("lap3d/4x1x1", 0xfeb58c012f690960),
    ("fem3d/4x1x1", 0xc905fbfdfb2a01cd),
    ("dg/4x1x1", 0x9f9811a0b2e47869),
    ("lap3d/1x2x1", 0xa904180362154ca8),
    ("fem3d/1x2x1", 0xae28c77ebbc31711),
    ("dg/1x2x1", 0xafdf1b794bd35761),
    ("lap3d/2x2x1", 0xc4663637b3aba1bb),
    ("fem3d/2x2x1", 0x1354178286de523d),
    ("dg/2x2x1", 0x2aadbc2c1139d919),
    ("lap3d/3x2x1", 0xc02b78ce3de67c62),
    ("fem3d/3x2x1", 0xce368ee5be0cf4ed),
    ("dg/3x2x1", 0x84b478439e8766fd),
    ("lap3d/4x2x1", 0x7ed7a9c8a89ffeb9),
    ("fem3d/4x2x1", 0x565e1a70ca745a19),
    ("dg/4x2x1", 0x14749ba22702ed1d),
    ("lap3d/1x3x1", 0x6785b280ef189e16),
    ("fem3d/1x3x1", 0x8ddd9af063088ecd),
    ("dg/1x3x1", 0x83f6929c9b985675),
    ("lap3d/2x3x1", 0x8c5532228d05a284),
    ("fem3d/2x3x1", 0x41eb70f7819c2e7d),
    ("dg/2x3x1", 0xdd92c1cea030d33d),
    ("lap3d/3x3x1", 0xefde8c0bc4c2326e),
    ("fem3d/3x3x1", 0xde4a727b51ae424d),
    ("dg/3x3x1", 0xeb4b1203d2e78d21),
    ("lap3d/4x3x1", 0x8d61e62dd975f356),
    ("fem3d/4x3x1", 0x15a21f23f0e7ff09),
    ("dg/4x3x1", 0x9133372ebb3132ed),
    ("lap3d/1x4x1", 0x9ac8a901e00e0bc0),
    ("fem3d/1x4x1", 0xc706cf52a1063ecd),
    ("dg/1x4x1", 0xc861d7c712f6c7e9),
    ("lap3d/2x4x1", 0xa8755833a927be01),
    ("fem3d/2x4x1", 0xf544ad2185e8b83d),
    ("dg/2x4x1", 0xb5bbadae4fff2519),
    ("lap3d/3x4x1", 0xf2a7b2d799eda69e),
    ("fem3d/3x4x1", 0xaac8959b4f7b7d11),
    ("dg/3x4x1", 0xf8f54f1036fc80fd),
    ("lap3d/4x4x1", 0xfeadb165d5c4b3ff),
    ("fem3d/4x4x1", 0x8a0e51595de88611),
    ("dg/4x4x1", 0x4aa7d473057b1685),
    ("lap3d/1x1x2", 0x3000d25e6113c308),
    ("fem3d/1x1x2", 0x7774b6b87bf90c91),
    ("dg/1x1x2", 0x2815d9e94b552961),
    ("lap3d/2x1x2", 0x3d697bdcb4ad2b5b),
    ("fem3d/2x1x2", 0xa1ecae955d8258bd),
    ("dg/2x1x2", 0x826a358de99bc159),
    ("lap3d/3x1x2", 0xe881e55a9391aa42),
    ("fem3d/3x1x2", 0x025c013c84853a2d),
    ("dg/3x1x2", 0xbc627cd1605b8dbd),
    ("lap3d/4x1x2", 0x56813d3c52f4d0d9),
    ("fem3d/4x1x2", 0x75b7d27a3b553119),
    ("dg/4x1x2", 0x5d771caf0507a09d),
    ("lap3d/1x2x2", 0x1c1a85879a39817b),
    ("fem3d/1x2x2", 0xb610ef60ed39673d),
    ("dg/1x2x2", 0x8c022ccacd19e799),
    ("lap3d/2x2x2", 0xf3937f060a8d5e3c),
    ("fem3d/2x2x2", 0x92821398e2e75509),
    ("dg/2x2x2", 0x8b8ca0a001d464a1),
    ("lap3d/3x2x2", 0x00d695c601bc3611),
    ("fem3d/3x2x2", 0xe0a121556a860e99),
    ("dg/3x2x2", 0xd11056ef3ef7cde9),
    ("lap3d/4x2x2", 0x08a95d76606a8002),
    ("fem3d/4x2x2", 0x6449ee183315f669),
    ("dg/4x2x2", 0xeb0192f61790c999),
    ("lap3d/1x3x2", 0xa5e3f8b05eaa5682),
    ("fem3d/1x3x2", 0x674b0265fb7aad2d),
    ("dg/1x3x2", 0x83470cdab323c33d),
    ("lap3d/2x3x2", 0xe064a12edb3faead),
    ("fem3d/2x3x2", 0x2c15a8dac922c685),
    ("dg/2x3x2", 0xaad44eff19ca385d),
    ("lap3d/3x3x2", 0x1d51d0d3eea11ca0),
    ("fem3d/3x3x2", 0xca9b7400e185a485),
    ("dg/3x3x2", 0xbf945dadb458ac19),
    ("lap3d/4x3x2", 0x1eeaae15c70afcc3),
    ("fem3d/4x3x2", 0x99dfab6cf29e3015),
    ("dg/4x3x2", 0x6a2ec490c72e6c3d),
    ("lap3d/1x4x2", 0xf2945a3d0399d339),
    ("fem3d/1x4x2", 0xaeb0eafeffd3d699),
    ("dg/1x4x2", 0xc70280dfcf871d9d),
    ("lap3d/2x4x2", 0x78da526651b4ed3a),
    ("fem3d/2x4x2", 0x8290439a6ead5255),
    ("dg/2x4x2", 0x34eb72a0b4823925),
    ("lap3d/3x4x2", 0xcf5855bcbdac03e3),
    ("fem3d/3x4x2", 0xa5d4391ce9dbd25d),
    ("dg/3x4x2", 0x69cea9fac57942e9),
    ("lap3d/4x4x2", 0xaa689b695ad5b2e4),
    ("fem3d/4x4x2", 0xc188d72b57400639),
    ("dg/4x4x2", 0x037c696488a0e271),
    ("lap3d/1x1x3", 0xb8328b999a6ef9d6),
    ("fem3d/1x1x3", 0xb172e3f05256e9cd),
    ("dg/1x1x3", 0x05e7e842221cad75),
    ("lap3d/2x1x3", 0x3ba85909e1af46c4),
    ("fem3d/2x1x3", 0x60687a738f52b87d),
    ("dg/2x1x3", 0xa71ce5c66c8e5abd),
    ("lap3d/3x1x3", 0x408b652470188e2e),
    ("fem3d/3x1x3", 0xb9512b9dad3f82cd),
    ("dg/3x1x3", 0x80a366203ef03a21),
    ("lap3d/4x1x3", 0xde0ebf4684cc4f16),
    ("fem3d/4x1x3", 0xa7e8882fa2852489),
    ("dg/4x1x3", 0x71b4282f6674c0ed),
    ("lap3d/1x2x3", 0x9f953c09310a4464),
    ("fem3d/1x2x3", 0xc63cf22499a8a5bd),
    ("dg/1x2x3", 0x93bc852dfb6107fd),
    ("lap3d/2x2x3", 0x7599904683592df5),
    ("fem3d/2x2x3", 0x6da22315dd3a8b0d),
    ("dg/2x2x3", 0xc4258563c3ac89ad),
    ("lap3d/3x2x3", 0xf1f855abbc2b7062),
    ("fem3d/3x2x3", 0x9101c58ccad4e655),
    ("dg/3x2x3", 0xa73dbafb5b81864d),
    ("lap3d/4x2x3", 0xcd7af1fcf893aaa3),
    ("fem3d/4x2x3", 0x128191c8cca978e5),
    ("dg/4x2x3", 0x50c06dc5ca3b27d5),
    ("lap3d/1x3x3", 0xfded787a3b313a6e),
    ("fem3d/1x3x3", 0x72bd865d292d624d),
    ("dg/1x3x3", 0x27b7fefc54289d21),
    ("lap3d/2x3x3", 0xf4f3fd515494492c),
    ("fem3d/2x3x3", 0x4662b0749cdd8fb1),
    ("dg/2x3x3", 0xace853c146c2ee25),
    ("lap3d/3x3x3", 0x29ce7f3c5aeae716),
    ("fem3d/3x3x3", 0x2759af2ea4f50249),
    ("dg/3x3x3", 0x0f7db7c5bd6709a1),
    ("lap3d/4x3x3", 0x257af86806e74340),
    ("fem3d/4x3x3", 0xc6194100f8acb4e5),
    ("dg/4x3x3", 0x900db9774a192f7d),
    ("lap3d/1x4x3", 0x84998ef0090ea076),
    ("fem3d/1x4x3", 0x71b51d4cd2e82389),
    ("dg/1x4x3", 0x2bb659a97af92ead),
    ("lap3d/2x4x3", 0xad3a57ee232e4157),
    ("fem3d/2x4x3", 0x565a545b5aa1c235),
    ("dg/2x4x3", 0x6115879d3e16b125),
    ("lap3d/3x4x3", 0x9d627204ae1a1070),
    ("fem3d/3x4x3", 0x267ff742f5b86f21),
    ("dg/3x4x3", 0x09204f6d326975a9),
    ("lap3d/4x4x3", 0xb341fba51917e5a6),
    ("fem3d/4x4x3", 0x05f46b4d92ee0d3d),
    ("dg/4x4x3", 0xe8e1fd3fc352334d),
    ("lap3d/1x1x4", 0xd1188a4433b62660),
    ("fem3d/1x1x4", 0x41a902d4cafa99cd),
    ("dg/1x1x4", 0x74d0092ec7b41069),
    ("lap3d/2x1x4", 0x2f72128ea8263461),
    ("fem3d/2x1x4", 0x5f319c89679cc43d),
    ("dg/2x1x4", 0x209ac915014db399),
    ("lap3d/3x1x4", 0x6baaf87c9aef303e),
    ("fem3d/3x1x4", 0xdc4a6f50d5878851),
    ("dg/3x1x4", 0xb099891d55b0fb3d),
    ("lap3d/4x1x4", 0xc85dd023821c995f),
    ("fem3d/4x1x4", 0x53f9d299ff4df711),
    ("dg/4x1x4", 0x685d58e792a46e45),
    ("lap3d/1x2x4", 0x0e231c398db28a81),
    ("fem3d/1x2x4", 0x258bd7cdfbff98bd),
    ("dg/1x2x4", 0xbfdb3545015c0699),
    ("lap3d/2x2x4", 0x3649791ecc0ab4ca),
    ("fem3d/2x2x4", 0x4359971a27e460e1),
    ("dg/2x2x4", 0x97bcb2a39967de7d),
    ("lap3d/3x2x4", 0xb62907d1b9a7c29b),
    ("fem3d/3x2x4", 0xba313a2e8057a339),
    ("dg/3x2x4", 0x57f14764de3f8b79),
    ("lap3d/4x2x4", 0x4d4cd48ef8fc3e94),
    ("fem3d/4x2x4", 0x6305a845b399d7d5),
    ("dg/4x2x4", 0x3589aadb35011c0d),
    ("lap3d/1x3x4", 0xae48e526cfd683fe),
    ("fem3d/1x3x4", 0x2e23b6ec36bf7e51),
    ("dg/1x3x4", 0x7dfe94dd545882bd),
    ("lap3d/2x3x4", 0x9ebd529042d253df),
    ("fem3d/2x3x4", 0x67b69cadd1c72e01),
    ("dg/2x3x4", 0x1f622dc07e27acd5),
    ("lap3d/3x3x4", 0xc9ac975e6f5306f8),
    ("fem3d/3x3x4", 0x97dab4b903c51b61),
    ("dg/3x3x4", 0x3b28e3f1ac11a99d),
    ("lap3d/4x3x4", 0xadb012d2ea9ca106),
    ("fem3d/4x3x4", 0xbe6df82d323f123d),
    ("dg/4x3x4", 0xb9d67ca722862821),
    ("lap3d/1x4x4", 0x6470ed2432c19bbf),
    ("fem3d/1x4x4", 0x365f6ed27ef30c91),
    ("dg/1x4x4", 0xb7e357c32a2eaa85),
    ("lap3d/2x4x4", 0xceea7aca4b478054),
    ("fem3d/2x4x4", 0x50f4926df657bf59),
    ("dg/2x4x4", 0xf821f927dc46eb69),
    ("lap3d/3x4x4", 0x12347ffe5839b366),
    ("fem3d/3x4x4", 0x0a0501588d97b335),
    ("dg/3x4x4", 0x8a835933a9fdbba5),
    ("lap3d/4x4x4", 0x579ecaeed6668e91),
    ("fem3d/4x4x4", 0xcad7096e02230389),
    ("dg/4x4x4", 0x28153c1d8fad1565),
    ("bench/lap2d-200x200", 0x9f1166f7062ec33b),
    ("bench/lap2d-120x120", 0x19068db9d2b6a622),
    ("bench/fem3d-18x18x18-dof3/101", 0xf859a2898f689781),
    ("bench/dg-16x16x4-b24/101", 0x7da55aade7df03a6),
    ("bench/fem3d-18x18x18-dof3/24081", 0x8cc95e94ba88cf89),
    ("bench/dg-16x16x4-b24/24081", 0xd0e903aa2bd7fb0e),
];
