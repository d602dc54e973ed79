//! A handler's panic fails the run loudly and names its event, never
//! hangs it.
//!
//! The sweep: a protocol that panics in `on_timer` or in `on_message`, at
//! one of 4 victim nodes, in one of 4 rounds, over 1 / 5 / 40 ms links,
//! on the cluster at shards {2, 3, 4, 7, 8} under every placement — 1 440
//! cases — plus the same 96 cases on the sequential engine. Each case
//! runs under a 10 s watchdog, and its panic must name the shard that
//! ran the handler, the virtual time and source of the event, the node it
//! was addressed to and the original message.
//!
//! An exhausted event budget fails the run the same way: a zero-delay
//! timer cycle, which never leaves its virtual instant, must fail with
//! the budget message on the sequential engine and at shards {1, 2, 4}.

use fed_cluster::{ShardMap, ShardedSimulation};
use fed_sim::network::{LatencyModel, NetworkModel};
use fed_sim::{Context, NodeId, Protocol, SimDuration, SimTime, Simulation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

const NODES: u32 = 16;
const ROUND_MS: u64 = 10;
const VICTIMS: [u32; 4] = [0, 5, 10, 15];
const ROUNDS: [u64; 4] = [1, 2, 5, 9];
const LINKS_MS: [u64; 3] = [1, 5, 40];
const SHARD_COUNTS: [usize; 5] = [2, 3, 4, 7, 8];
const WATCHDOG: Duration = Duration::from_secs(10);

/// Where the victim panics.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Site {
    /// In its `round`-th timer.
    Timer,
    /// On the message its predecessor sent in round `round`.
    Message,
}

/// Every `ROUND_MS` each node sends its round number to its successor
/// on the ring; the victim panics at `site` in `round`.
struct Bomb {
    id: u32,
    victim: u32,
    round: u64,
    site: Site,
    fired: u64,
}

impl Protocol for Bomb {
    type Msg = u64;
    type Cmd = ();
    fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(ROUND_MS), 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, round: u64) {
        if self.site == Site::Message && self.id == self.victim && round == self.round {
            panic!("bomb in on_message at node {}", self.id);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _token: u64) {
        self.fired += 1;
        if self.site == Site::Timer && self.id == self.victim && self.fired == self.round {
            panic!("bomb in on_timer at node {}", self.id);
        }
        ctx.send(NodeId::new((self.id + 1) % NODES), self.fired);
        ctx.set_timer(SimDuration::from_millis(ROUND_MS), 0);
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    site: Site,
    victim: u32,
    round: u64,
    link_ms: u64,
}

impl Case {
    fn factory(
        self,
    ) -> impl Fn(NodeId, &mut fed_util::rng::Xoshiro256StarStar) -> Bomb + Send + Sync + 'static
    {
        move |id, _| Bomb {
            id: id.as_u32(),
            victim: self.victim,
            round: self.round,
            site: self.site,
            fired: 0,
        }
    }

    fn net(self) -> NetworkModel {
        NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(
            self.link_ms,
        )))
    }

    /// What the report must say about `shard`'s panic: the shard, the
    /// event's virtual time and source, the node and the message.
    fn expected(self, shard: usize) -> Vec<String> {
        let sent_us = self.round * ROUND_MS * 1_000;
        let (time_us, src, site) = match self.site {
            Site::Timer => (sent_us, self.victim, "on_timer"),
            Site::Message => (
                sent_us + self.link_ms * 1_000,
                (self.victim + NODES - 1) % NODES,
                "on_message",
            ),
        };
        vec![
            format!("shard {shard}: handler panicked at virtual time {time_us}us"),
            format!("event (src {src}, seq "),
            format!(
                "for node {}: bomb in {site} at node {}",
                self.victim, self.victim
            ),
        ]
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for site in [Site::Timer, Site::Message] {
        for victim in VICTIMS {
            for round in ROUNDS {
                for link_ms in LINKS_MS {
                    cases.push(Case {
                        site,
                        victim,
                        round,
                        link_ms,
                    });
                }
            }
        }
    }
    cases
}

/// Runs `run` on its own thread and returns its panic message, failing
/// when it returns normally or outlives the watchdog.
fn panic_of(what: &str, run: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(run)).err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(Some(message)) => message,
        Ok(None) => panic!("{what}: the run finished without panicking"),
        Err(_) => panic!("{what}: the run hung past the {WATCHDOG:?} watchdog"),
    }
}

fn assert_names(what: &str, message: &str, expected: &[String]) {
    for part in expected {
        assert!(
            message.contains(part.as_str()),
            "{what}: the report does not name `{part}`:\n{message}"
        );
    }
}

#[test]
fn a_handler_panic_names_its_event_on_every_engine_and_placement() {
    // The re-raised report is what the test reads; the hook's copies of
    // 1 500 panics would only bury a failure.
    std::panic::set_hook(Box::new(|_| {}));
    let horizon = SimTime::from_millis(200);
    let weights: Vec<u64> = (0..NODES as u64).map(|i| 1 + i % 5).collect();
    for case in cases() {
        let what = format!("{case:?} sequential");
        let message = panic_of(&what, move || {
            Simulation::new(NODES as usize, case.net(), 7, case.factory()).run_until(horizon);
        });
        assert_names(&what, &message, &case.expected(0));
        for shards in SHARD_COUNTS {
            let maps = [
                ShardMap::round_robin(NODES as usize, shards),
                ShardMap::block(NODES as usize, shards),
                ShardMap::balanced(&weights, shards),
            ];
            for map in maps {
                let owner = map.shard_of(NodeId::new(case.victim));
                let what = format!("{case:?} at {shards} shards, victim on shard {owner}");
                let message = panic_of(&what, move || {
                    let net = case.net();
                    ShardedSimulation::with_scheduler(NODES as usize, net, 7, map, case.factory())
                        .run_until(horizon);
                });
                assert_names(&what, &message, &case.expected(owner));
            }
        }
    }
}

/// Re-arms a zero-delay timer forever, so every event is due at 0 µs and
/// only the event budget can end the run.
struct Spin;

impl Protocol for Spin {
    type Msg = ();
    type Cmd = ();
    fn on_init(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _token: u64) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
}

#[test]
fn an_exhausted_event_budget_fails_a_same_time_cycle_on_every_engine() {
    const BUDGET: u64 = 10_000;
    let net = || NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(1)));
    let horizon = SimTime::from_secs(1);
    let expected = [format!(
        "event budget of {BUDGET} events exhausted at virtual time 0us"
    )];
    let message = panic_of("sequential", move || {
        let mut sim = Simulation::new(NODES as usize, net(), 7, |_, _| Spin);
        sim.set_max_events(BUDGET);
        sim.run_until(horizon);
    });
    assert_names("sequential", &message, &expected);
    for shards in [1, 2, 4] {
        let what = format!("{shards} shards");
        let message = panic_of(&what, move || {
            let mut sim = ShardedSimulation::new(NODES as usize, net(), 7, shards, |_, _| Spin);
            sim.set_max_events(BUDGET);
            sim.run_until(horizon);
        });
        assert_names(&what, &message, &expected);
    }
}
