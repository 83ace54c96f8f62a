//! Input generators. Every input is a function of the run's `--seed`; the
//! cluster only ever receives the generated transactions.

use ratc_types::{Key, Payload, TxId, Value, Version};

use crate::util::Rng;

/// A transaction due at a point of virtual time (open-loop loads).
pub struct Arrival {
    pub at_micros: u64,
    pub tx: TxId,
    pub payload: Payload,
}

/// Read-modify-write of `keys`, reading the given versions.
fn read_write(keys: &[(Key, Version)], commit: Version) -> Payload {
    let mut builder = Payload::builder();
    for (key, read) in keys {
        builder = builder
            .read(key.clone(), *read)
            .write(key.clone(), Value::from("v"));
    }
    builder
        .commit_version(commit)
        .build()
        .expect("generated payloads are well formed")
}

/// An endless stream of single-key read-write transactions on keys no other
/// transaction of the stream touches (so every one must commit). Key names
/// are seeded, which decides the shard each transaction lands on.
pub struct Disjoint {
    rng: Rng,
    next: u64,
}

impl Disjoint {
    pub fn new(seed: u64) -> Disjoint {
        Disjoint {
            rng: Rng::new(seed),
            next: 0,
        }
    }

    pub fn next_tx(&mut self) -> (TxId, Payload) {
        self.next += 1;
        let key = Key::new(format!("d{}-{:x}", self.next, self.rng.next_u64() >> 40));
        let payload = read_write(&[(key, Version::ZERO)], Version::new(1));
        (TxId::new(self.next), payload)
    }

    pub fn take(&mut self, n: usize) -> Vec<(TxId, Payload)> {
        (0..n).map(|_| self.next_tx()).collect()
    }
}

/// `count` disjoint transactions, one every `interval_micros` of virtual time.
pub fn paced_disjoint(seed: u64, count: usize, interval_micros: u64) -> Vec<Arrival> {
    let mut stream = Disjoint::new(seed);
    (0..count as u64)
        .map(|i| {
            let (tx, payload) = stream.next_tx();
            Arrival {
                at_micros: (i + 1) * interval_micros,
                tx,
                payload,
            }
        })
        .collect()
}

/// The `rdma-contended` open loop: `count` transactions, one per
/// `mean_gap` µs on average (uniform jitter of ±half the gap), each a
/// read-modify-write of `keys_per_tx` distinct keys drawn Zipf(`theta`)
/// from `key_count` keys. Each read names the last version the generator
/// assigned to the key, so aborts come only from conflicts still in flight.
pub fn contended(
    seed: u64,
    count: usize,
    mean_gap: u64,
    key_count: usize,
    keys_per_tx: usize,
    theta: f64,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    // Cumulative Zipf weights over popularity ranks.
    let mut cdf = Vec::with_capacity(key_count);
    let mut total = 0.0;
    for rank in 1..=key_count {
        total += 1.0 / (rank as f64).powf(theta);
        cdf.push(total);
    }
    // A seeded rank → key permutation, so the hot keys (and therefore the
    // hot shards) move with the seed.
    let mut key_of: Vec<usize> = (0..key_count).collect();
    for i in (1..key_count).rev() {
        key_of.swap(i, rng.next_u64() as usize % (i + 1));
    }
    let keys: Vec<Key> = (0..key_count).map(|k| Key::new(format!("z{k}"))).collect();
    let mut last_version = vec![0u64; key_count];
    let mut at = 0;
    let mut out = Vec::with_capacity(count);
    for i in 0..count as u64 {
        at += rng.range(mean_gap / 2, mean_gap + mean_gap / 2);
        let mut picked: Vec<usize> = Vec::with_capacity(keys_per_tx);
        while picked.len() < keys_per_tx {
            let u = rng.unit() * total;
            let rank = cdf.partition_point(|c| *c < u).min(key_count - 1);
            let key = key_of[rank];
            if !picked.contains(&key) {
                picked.push(key);
            }
        }
        let commit = i + 1;
        let reads: Vec<(Key, Version)> = picked
            .iter()
            .map(|k| (keys[*k].clone(), Version::new(last_version[*k])))
            .collect();
        for k in &picked {
            last_version[*k] = commit;
        }
        out.push(Arrival {
            at_micros: at,
            tx: TxId::new(commit),
            payload: read_write(&reads, Version::new(commit)),
        });
    }
    out
}
