//! The benchmark's workloads: what each rank trains, then serves.
//!
//! Every workload is one 2-rank deployment on TCP loopback: both ranks
//! build the products-like graph from the seed, train one model with
//! `run_worker`, then serve a model of the same architecture family to
//! closed-loop clients. See `README.md` for why each was chosen.

use std::time::Duration;

use sar_bench::distrun::Workload;

/// Ranks (OS processes) per deployment.
pub const WORLD: usize = 2;

/// Problem size: the benchmark's own, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A seconds-long size for self-tests.
    Tiny,
}

impl Scale {
    /// Parses `full` or `tiny`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The flag value.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// The serving phase of a workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Served model (seeded parameters, no batch norm, no dropout).
    pub workload: Workload,
    /// Embedding-cache rows per rank.
    pub cache_rows: usize,
    /// Front-end coalescing bound.
    pub max_batch: usize,
    /// Front-end coalescing delay.
    pub max_delay: Duration,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Node ids per query.
    pub ids_per_query: usize,
    /// How long the clients run per deployment.
    pub window: Duration,
    /// Queries per client answered before latency is recorded, so the
    /// percentiles describe a serving tier whose cache has filled.
    pub warmup_queries: u64,
    /// Every how many queries a client keeps the answer for the
    /// bitwise check against `sar_core::infer`.
    pub check_every: u64,
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The training job.
    pub train: Workload,
    /// The serving job.
    pub serve: ServeSpec,
}

/// Names of every workload, in order.
pub const NAMES: [&str; 2] = ["sage-tcp2", "gat-fak-tcp2"];

/// The workload called `name`, with inputs drawn from `seed`.
///
/// # Errors
///
/// Names the unknown workload.
pub fn spec(name: &str, seed: u64, scale: Scale) -> Result<Spec, String> {
    let tiny = scale == Scale::Tiny;
    let nodes = if tiny { 600 } else { 20_000 };
    let base = Workload {
        dataset: "products".into(),
        nodes,
        layers: 3,
        seed,
        threads: 1,
        simd: "auto".into(),
        codec: "raw".into(),
        protocol: "exact".into(),
        mem_budget: 0,
        ..Workload::default()
    };
    let (train, serve) = match name {
        "sage-tcp2" => (
            Workload {
                arch: "sage".into(),
                mode: "sar".into(),
                hidden: 64,
                epochs: if tiny { 2 } else { 4 },
                prefetch_depth: 2,
                ..base.clone()
            },
            Workload {
                arch: "sage".into(),
                mode: "sar".into(),
                hidden: 32,
                layers: 2,
                ..base
            },
        ),
        "gat-fak-tcp2" => (
            Workload {
                arch: "gat".into(),
                mode: "sar-fak".into(),
                hidden: 16,
                heads: 4,
                epochs: 2,
                prefetch_depth: 0,
                ..base.clone()
            },
            Workload {
                arch: "gat".into(),
                mode: "sar-fak".into(),
                hidden: 8,
                heads: 4,
                layers: 2,
                ..base
            },
        ),
        other => {
            return Err(format!(
                "unknown workload {other} (one of: {})",
                NAMES.join(", ")
            ))
        }
    };
    Ok(Spec {
        train,
        serve: ServeSpec {
            workload: serve,
            cache_rows: 4096,
            max_batch: 16,
            max_delay: Duration::from_millis(1),
            clients: 2,
            ids_per_query: 8,
            window: Duration::from_millis(if tiny { 300 } else { 3000 }),
            warmup_queries: if tiny { 4 } else { 16 },
            check_every: 16,
        },
    })
}

/// Width of the tensor each layer's rotation fetches (and routes
/// gradients for): SAGE transforms before it aggregates, so it ships
/// `hidden` columns, then `classes` in the last layer; GAT ships every
/// head's projection, `heads × hidden`, then `heads × classes`.
pub fn fetch_widths(train: &Workload, classes: usize) -> Vec<usize> {
    let heads = if train.arch == "gat" { train.heads } else { 1 };
    (0..train.layers)
        .map(|l| {
            let w = if l + 1 == train.layers {
                classes
            } else {
                train.hidden
            };
            heads * w
        })
        .collect()
}

/// The seeded stream of queries one client issues: `ids_per_query`
/// node ids per query, uniform over the nodes.
#[derive(Debug, Clone)]
pub struct QueryStream {
    state: u64,
    ids_per_query: usize,
    nodes: u64,
}

impl QueryStream {
    /// Client `client`'s stream under `seed`.
    pub fn new(seed: u64, client: usize, ids_per_query: usize, nodes: usize) -> QueryStream {
        QueryStream {
            state: seed ^ 0x5EED_C0DE_u64.wrapping_add(client as u64),
            ids_per_query,
            nodes: nodes as u64,
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> Vec<u32> {
        (0..self.ids_per_query)
            .map(|_| (splitmix64(&mut self.state) % self.nodes) as u32)
            .collect()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_and_others_fail() {
        for name in NAMES {
            let s = spec(name, 7, Scale::Full).unwrap();
            assert_eq!(s.train.seed, 7);
            assert_eq!(s.train.threads, 1);
            assert_eq!(s.train.codec, "raw");
            assert_eq!(s.train.protocol, "exact");
            assert_eq!(s.train.mem_budget, 0);
        }
        assert!(spec("nope", 0, Scale::Full).is_err());
    }

    #[test]
    fn fetch_widths_follow_the_architecture() {
        let s = spec("sage-tcp2", 0, Scale::Full).unwrap();
        assert_eq!(fetch_widths(&s.train, 47), vec![64, 64, 47]);
        let g = spec("gat-fak-tcp2", 0, Scale::Full).unwrap();
        assert_eq!(fetch_widths(&g.train, 47), vec![64, 64, 188]);
    }

    #[test]
    fn query_streams_are_seeded_and_in_range() {
        let take = |seed, client| {
            let mut q = QueryStream::new(seed, client, 8, 50);
            (0..20).flat_map(|_| q.next_query()).collect::<Vec<u32>>()
        };
        let a = take(3, 0);
        assert_eq!(a.len(), 160);
        assert_eq!(a, take(3, 0));
        assert_ne!(a, take(3, 1));
        assert_ne!(a, take(4, 0));
        assert!(a.iter().all(|&i| i < 50));
    }
}
