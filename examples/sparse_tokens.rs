//! Sparse mode and hash tokens (paper §4.3).
//!
//! Most real deployments track distinct counts for *many* keys (one
//! sketch per page, per device, per query…), and most of those sketches
//! stay tiny. Allocating a full register array per key wastes memory;
//! ExaLogLog's sparse mode collects (v+6)-bit hash tokens until the dense
//! array pays off, and can estimate the count directly from the tokens.
//!
//! ```sh
//! cargo run --release --example sparse_tokens
//! ```

use ell_hash::{Hasher64, WyHash};
use exaloglog::token::{decode_token, encode_token};
use exaloglog::{AdaptiveExaLogLog, EllConfig, TokenSet};

fn main() {
    let hasher = WyHash::new(0);
    let config = EllConfig::optimal(12).expect("valid configuration");
    let dense_bytes = config.register_array_bytes();

    // A long-tail workload: 1000 keys, most with a handful of elements.
    let mut sketches: Vec<AdaptiveExaLogLog> = (0..1000)
        .map(|_| AdaptiveExaLogLog::new(config).expect("valid"))
        .collect();
    let mut total_elements = 0u64;
    for (key, sketch) in sketches.iter_mut().enumerate() {
        // Key k gets ~k elements: a linear long tail.
        for i in 0..=key {
            sketch.insert(&hasher, format!("key{key}-elem{i}").as_bytes());
            total_elements += 1;
        }
    }
    let sparse_count = sketches.iter().filter(|s| s.is_sparse()).count();
    let used: usize = sketches.iter().map(AdaptiveExaLogLog::memory_bytes).sum();
    let dense_would_be = 1000 * dense_bytes;
    println!("{total_elements} elements over 1000 keys");
    println!("{sparse_count} of 1000 sketches still sparse");
    println!(
        "memory: {used} bytes vs {dense_would_be} bytes if all dense ({}x saving)",
        dense_would_be / used.max(1)
    );

    // Estimates work in either phase.
    let small = &sketches[10];
    let large = &sketches[999];
    println!(
        "key 10 (sparse: {}): estimate {:.1} (true 11)",
        small.is_sparse(),
        small.estimate()
    );
    println!(
        "key 999 (sparse: {}): estimate {:.0} (true 1000)",
        large.is_sparse(),
        large.estimate()
    );

    // Under the hood: a 64-bit hash compresses to a v+6 bit token that
    // preserves everything any compatible sketch needs.
    let h = hasher.hash_bytes(b"demonstration");
    let v = 26; // 32-bit tokens, the paper's "particularly interesting" size
    let token = encode_token(h, v);
    let representative = decode_token(token, v);
    println!(
        "\nhash {h:#018x} → 32-bit token {token:#010x} → representative {representative:#018x}"
    );
    assert_eq!(encode_token(representative, v), token);

    // Token sets estimate directly — no register array at all — and merge
    // like sketches do.
    let mut site_a = TokenSet::new(v).expect("valid v");
    let mut site_b = TokenSet::new(v).expect("valid v");
    for i in 0..3000u32 {
        site_a.insert_hash(hasher.hash_bytes(format!("visitor-{i}").as_bytes()));
    }
    for i in 2000..5000u32 {
        site_b.insert_hash(hasher.hash_bytes(format!("visitor-{i}").as_bytes()));
    }
    site_a.merge_from(&site_b).expect("same v");
    println!(
        "token-set union estimate: {:.0} (true 5000) from {} tokens ({} bytes tight)",
        site_a.estimate(),
        site_a.len(),
        site_a.storage_bits() / 8
    );
}
