//! Golden flow-completion-time outputs.
//!
//! Pins [`simulate_fct_records`] bit for bit over a small grid: `C_2`
//! and `C_3`, both transports, both path policies, fixed, exponential
//! and bimodal sizes, and one offered load below 1 and one above. Each
//! row holds the `f64::to_bits` of every [`FctStats`] field, the
//! completed count, and an FNV-1a digest of every record's arrival, size
//! and FCT bits in record order. The rows were recorded from the
//! simulator that recompiled a max-min waterfill per event, so any change
//! in rates, event order or path choice shows here.

use clos_net::ClosNetwork;
use clos_sim::{simulate_fct_records, FctConfig, FctStats, PathPolicy, SizeDist, Transport};

/// `(mean, p50, p99, max, mean slowdown, makespan)` bits, completed
/// count, record digest.
type Fingerprint = ([u64; 6], usize, u64);

const SIZES: [SizeDist; 3] = [
    SizeDist::Fixed(1.0),
    SizeDist::Exponential(1.0),
    SizeDist::Bimodal {
        small: 0.25,
        large: 4.0,
        large_fraction: 0.2,
    },
];

const LOADS: [f64; 2] = [0.6, 1.3];

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn fingerprint(
    n: usize,
    transport: Transport,
    policy: PathPolicy,
    size: usize,
    load: usize,
) -> Fingerprint {
    let clos = ClosNetwork::standard(n);
    let size_dist = SIZES[size];
    let mut config = FctConfig {
        arrival_rate: 1.0,
        size_dist,
        flow_count: 60 * n,
        seed: 1000 + (n * 100 + size * 10 + load) as u64,
    };
    // Unit arrival rate offers `offered_load` per host uplink.
    config.arrival_rate = LOADS[load] / config.offered_load(&clos);
    let (stats, records) = simulate_fct_records(&clos, &config, transport, policy);
    let FctStats {
        completed,
        mean_fct,
        p50_fct,
        p99_fct,
        max_fct,
        mean_slowdown,
        makespan,
    } = stats;
    let digest = fnv1a(
        records
            .iter()
            .flat_map(|r| [r.arrival.to_bits(), r.size.to_bits(), r.fct.to_bits()]),
    );
    (
        [mean_fct, p50_fct, p99_fct, max_fct, mean_slowdown, makespan].map(f64::to_bits),
        completed,
        digest,
    )
}

/// Every grid point in a fixed order: fabric, transport, policy, size
/// distribution, load.
fn grid() -> Vec<(usize, Transport, PathPolicy, usize, usize)> {
    let mut points = Vec::new();
    for n in [2, 3] {
        for transport in [Transport::FairSharing, Transport::Scheduling] {
            for policy in [PathPolicy::Random, PathPolicy::LeastLoaded] {
                for size in 0..SIZES.len() {
                    for load in 0..LOADS.len() {
                        points.push((n, transport, policy, size, load));
                    }
                }
            }
        }
    }
    points
}

#[test]
fn fct_outputs_match_goldens() {
    let points = grid();
    assert_eq!(points.len(), GOLDEN.len());
    for (&(n, transport, policy, size, load), golden) in points.iter().zip(GOLDEN) {
        let got = fingerprint(n, transport, policy, size, load);
        assert_eq!(
            &got, golden,
            "C_{n} {transport:?} {policy:?} {:?} load {}",
            SIZES[size], LOADS[load]
        );
    }
}

#[rustfmt::skip]
const GOLDEN: &[Fingerprint] = &[
    ([0x40115d13c203ba36, 0x400e51fd7b1ec18f, 0x4023dedea911b68c, 0x4023e45efdf3ffb4, 0x40115d13c203ba37, 0x403f6ff15f0cf3db], 120, 0xbe5bf1971841515b),
    ([0x4022a602e9a54c31, 0x402209c3ae513590, 0x40307bae19d9023d, 0x40307ddd73b67e9b, 0x4022a602e9a54c32, 0x4037d1bdcc934647], 120, 0x42b95bfb718edbb9),
    ([0x4008ccdc8dd66d54, 0x3ffb9233dc190d41, 0x402a0ec646907f20, 0x402bb85fa31d5a1a, 0x400a9b0fffd4f31e, 0x403f8bba1c844fb0], 120, 0x300df102b4a77ab1),
    ([0x401510e2dd86d8b2, 0x40086fffe3628b4c, 0x40325d2ec8ae3036, 0x40388eef649245ca, 0x401524dd32da0cb2, 0x403daadc7c287c92], 120, 0x867ecf4a50c64bfb),
    ([0x4009616715f9af2d, 0x3fef38e3669735c8, 0x4034314a52428576, 0x4034b1bb73876d71, 0x400abec29d4461e7, 0x404219d1e4339f21], 120, 0x911f66bfd816f4af),
    ([0x4010d58604b5395c, 0x3ff4c0ce4962c364, 0x403be1919a2d20f2, 0x403c4f5419d98f23, 0x401210b1aeb57392, 0x4041bfc9388140ef], 120, 0x5d5aa55d8474715e),
    ([0x400e5a0e8e84048e, 0x4008698640a78268, 0x4022a8bdf2805c1a, 0x4022e239902beca8, 0x400e5a0e8e84048a, 0x403f894444b25c9f], 120, 0xf51f3f3dfd43e96c),
    ([0x40209390ec6e8e38, 0x402008eb15151d04, 0x402ade11d5799352, 0x402b296a002ec223, 0x40209390ec6e8e37, 0x4035fb3f6cd544a7], 120, 0x411f9404f6676f60),
    ([0x40064253b6d57c0a, 0x3ffa85338f03cb58, 0x40298c886e1d83fc, 0x402b96be8330ac84, 0x4007e1bd480ecbc1, 0x403f7ae98c8df8e5], 120, 0xa32d47bc8d65cc28),
    ([0x401248c62ebe1f92, 0x400404ae751c95f0, 0x40314cf8bf290eea, 0x403154b2513b36a4, 0x4012623235d64813, 0x403cf39bca95aa90], 120, 0x03e1f2eae62ec6e9),
    ([0x400751c4c5576ae3, 0x3fe81ae3c1e45b50, 0x4033904c6e6a37d9, 0x4033b5c4a5f6a6f4, 0x4007e69b7295d38d, 0x4041f16d9f50f0c1], 120, 0x08e84e92ef0ddf57),
    ([0x400e29bd1cc67bd4, 0x3fefe4ff75f05290, 0x40372f385625af20, 0x403857cea890a69a, 0x400ef673a85877d7, 0x403efe2dc3b0162a], 120, 0x97e54ca4d56056c9),
    ([0x400bf88305c9869d, 0x40076ece8e711514, 0x4020c8d61f364e8a, 0x402123a477b81100, 0x400bf88305c9869a, 0x4040e5130e0829f2], 120, 0x35bec5a2a6ea9497),
    ([0x401c305322ee0a39, 0x401ada03dcd77292, 0x402c16a7187fddf4, 0x402d17afaed8a8bb, 0x401c305322ee0a39, 0x4038e203a4dd1f84], 120, 0x0d1d53122d19588e),
    ([0x400c9f954b816771, 0x4009779172a3d592, 0x4022d43ef538f25a, 0x40234f411ddadbf0, 0x40209fde6ca7d14a, 0x4040fc3eb0657857], 120, 0x257cb0e1bfebd9f0),
    ([0x40178dfe38cf31f6, 0x400dda48f2e3f5ea, 0x403335a6baa21684, 0x4033cb10ec40c80f, 0x4044b5ac02046ac2, 0x4040196f288db184], 120, 0xd8014eda2859d1e6),
    ([0x401012b1dc2dc62e, 0x4007ee5584b96820, 0x403185942c011a22, 0x40328699ab57c32d, 0x402408160872fca2, 0x4042d6f1b44870a2], 120, 0x697075bf8ce71465),
    ([0x401af2711ea53ebb, 0x4010c94af8908d48, 0x40374704f5736e3c, 0x403974eb6d55f9c0, 0x4032a61d26691677, 0x404255a5ecacd65d], 120, 0x6a64e7d76cd88c4f),
    ([0x40081862a5449cbe, 0x4001c845b39996a0, 0x401f7bd9524d5f54, 0x401fad9f8e3100a4, 0x40081862a5449cbf, 0x4040c1c1de8c5fae], 120, 0xa7bae4f474ed55b1),
    ([0x40195d99932ddb9e, 0x40192a87b9badc5e, 0x4027891693fe40a9, 0x40293886d5a2feaf, 0x40195d99932ddb9e, 0x4037fb84952d86fa], 120, 0x894a8c5bd6f2aab8),
    ([0x4008fde5eea7a7c3, 0x4001c1e99dba29f0, 0x401fee2d0eee7538, 0x40211869248ff2e6, 0x401d6a57113dfc70, 0x404004c9e754134c], 120, 0x6b3e88de80e1c10a),
    ([0x401247af024f96a3, 0x400988f10a3855cc, 0x402f4fe32eeffba3, 0x40303d5bc916af5d, 0x4034766f64cc5b47, 0x403ca5292df14a56], 120, 0xf7da9b2ca3985288),
    ([0x40111441916e1584, 0x40094151aa403abe, 0x40304c445339876b, 0x4030e9dd760c1f59, 0x40257be77533d393, 0x404251e164262173], 120, 0x286245ae02a0e17e),
    ([0x4018793aabe5f9e9, 0x401106c7a7607008, 0x4032156fed0eadde, 0x4034348da15026d0, 0x4030d2555ab8d0ce, 0x403f6aee0d53d9ca], 120, 0xc028a772149ebcca),
    ([0x4010acd29a569fce, 0x400e857837b08ad8, 0x4020eb14c7011dc2, 0x4021003d6ccb3270, 0x4010acd29a569fd0, 0x40357b8e046592b4], 180, 0xcde95916638b8bd5),
    ([0x4020d0b5308d0266, 0x4021f7ba7ca8262a, 0x402cf0a6ca0e3f8c, 0x402cf0a6ca0e3f8c, 0x4020d0b5308d0264, 0x40328cd50481193e], 180, 0x29f64078038ea96e),
    ([0x4008997776329fdb, 0x3ffe03e598c49ec0, 0x40269ec37939bcef, 0x402c8fd2967b4fdf, 0x400a02e8f6465c64, 0x4037dc2dc33dea04], 180, 0xc206ea4eb233f4aa),
    ([0x401b23ef5b59fa49, 0x4014ff9f7d4360d7, 0x40347530becbd54f, 0x40368f782235c16c, 0x4016eb32c143cc47, 0x4039e8340af00a18], 180, 0x1c7ee3c1ab6046c3),
    ([0x400fb13b07a3fce8, 0x3fe834f8635dd568, 0x403b53c4874d7407, 0x403b5b717aa157e4, 0x400a7a10e8a04929, 0x4041ff3e613258e3], 180, 0x523437411ace9c63),
    ([0x4008e359b10537a6, 0x3ff07227f3c375f4, 0x40338f839010515a, 0x40344f269c4b3492, 0x400e328a36fabd80, 0x4038bd05f8df0a69], 180, 0x91905d6d7db2cff0),
    ([0x400ca497735268bd, 0x4009b0c5047042c8, 0x401ec8d36027bbec, 0x401ec8d36027bbf8, 0x400ca497735268bf, 0x40350968e8cc9bed], 180, 0x507c2e3174380588),
    ([0x401da8cfe6f03da8, 0x401dcd8f83f8e0c0, 0x402cb25c81ee77b4, 0x402cb25c81ee77b4, 0x401da8cfe6f03da4, 0x40326e7d3074dfe8], 180, 0x162e78eff1feedd6),
    ([0x4004fb99a56c6436, 0x3ffa125268774254, 0x40246eb8fb40d7c9, 0x4029573ecca72b2d, 0x40061703ce9d8a0b, 0x40371196f8541b14], 180, 0x6e0689916dfcf8a8),
    ([0x40190f5d4b8191ca, 0x4011454400596f3c, 0x403896f81980bb90, 0x403a5f8c9cffdcda, 0x4014e57889dab7ce, 0x403d32225aa14c36], 180, 0x8e1d80ead4f16f12),
    ([0x400b1c2ba788bf75, 0x3fe7c326d8a80000, 0x40365213d0d58c4a, 0x4036c217523ad43f, 0x40065b3bd97249ee, 0x4041fc8c9e49a7ac], 180, 0xf2a19aada6affd42),
    ([0x400545e224cc60f0, 0x3fea82065bec4a78, 0x40331d4ede501754, 0x403332da2f154574, 0x400942e621b859c3, 0x403856a571563b2a], 180, 0xeb07013eb5886882),
    ([0x400bb42e5152297d, 0x400a981349ba0b06, 0x401ec6153238bf04, 0x401f57bbdfc531c2, 0x400bb42e51522980, 0x40374c5859ba6815], 180, 0x84c3fd93e2acd7b9),
    ([0x4018c07c2e68724b, 0x401787c6a096419c, 0x4029b38b229100d2, 0x402a25efc0e4d743, 0x4018c07c2e68724b, 0x4033e44303d6cb33], 180, 0x43019eec1c777dff),
    ([0x400f303237deaa84, 0x400daf7500e75050, 0x40240f6022a6c341, 0x4024375e0e48451f, 0x402e35c76a4951a5, 0x40398ad8e3b46562], 180, 0xb3b3bfc9f27739e6),
    ([0x4020652e81ddb78d, 0x4020625ba325222a, 0x403307f1eceaad05, 0x40374e287f4d7d0e, 0x40325cf0fa3dbe3f, 0x403e445f74c1525a], 180, 0xaa704455868bdaef),
    ([0x40175eeed09dbb95, 0x400fafd4bac38884, 0x4037f453e423170b, 0x4038b9a2764d8226, 0x402d150de150abfd, 0x40426b4e101189da], 180, 0x3e5638cc9511bddd),
    ([0x4015148276976791, 0x40112a4d1dc1d516, 0x40301effd9c04980, 0x4031e430bcfed8a1, 0x402e62b83cab912c, 0x40381091f3fa186e], 180, 0x858ab255b03ab156),
    ([0x40087019a7515776, 0x4008714d89d5e09c, 0x4019a33becafa2ac, 0x401cc524ccffea0e, 0x40087019a7515777, 0x4036034dcf5797ee], 180, 0xbbf4b27a8c03f369),
    ([0x4016f62b0a2eef9e, 0x40157c032142149c, 0x4028b9d935d57b9f, 0x402926048c777030, 0x4016f62b0a2eef9e, 0x40337d9274622928], 180, 0x93c8f55d2a32e488),
    ([0x400ab18ed9915aa6, 0x400868f66520a300, 0x4023d3207d77abb2, 0x402535bbce10b92d, 0x40291316a7922b69, 0x403a02c31423e433], 180, 0xed06d0fbd4dab1d2),
    ([0x401ea7d65aa8a7b5, 0x401bd4a649193b94, 0x4033d0dac873f7b2, 0x403814f7d5a1c06a, 0x402cd19d1d034177, 0x403f0b2ecb1595b6], 180, 0x5970a628f7e70519),
    ([0x4013f33776570265, 0x400eb512cec9548a, 0x4033df088971009b, 0x40355a2d3fa2ffda, 0x4027c95d89864da8, 0x404200a862b87ea2], 180, 0x93ca0a3edc4ea641),
    ([0x4013987b70a0f32d, 0x400e9f9385473a24, 0x40319ea85cb7ef75, 0x4032abfa993828d4, 0x402b9083be974d95, 0x4039185bd03368a1], 180, 0xfc69867df06cb9bf),
];
