//! The observer algebra of [`fed_sim::exec::Probe`]: how `()`, `Option`
//! and tuples compose, and that an observer attached through
//! `run_until_observed` sees the same hook tape on both engines.

use fed_cluster::ShardedSimulation;
use fed_sim::exec::{HopKind, HopRecord, Probe, SendFate, WindowWork};
use fed_sim::network::{LatencyModel, NetworkModel};
use fed_sim::{Context, NodeId, Protocol, SimDuration, SimTime, Simulation};
use fed_util::rng::Rng64;
use std::cell::RefCell;
use std::rc::Rc;

/// One hook invocation, verbatim.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Event(SimTime),
    Send(SimTime, NodeId, u64, SendFate),
    Receive(SimTime, NodeId, u64),
    Liveness(SimTime, NodeId, bool),
    Hop(HopRecord),
    Window(WindowWork),
}

/// Writes `(tag, call)` for every hook into a log shared with its
/// siblings, so the log shows both what each member saw and in which
/// order the members were visited.
struct Member {
    tag: u8,
    log: Rc<RefCell<Vec<(u8, Call)>>>,
    profiles: bool,
    traces: bool,
}

impl Member {
    fn new(tag: u8, log: &Rc<RefCell<Vec<(u8, Call)>>>) -> Self {
        Member {
            tag,
            log: Rc::clone(log),
            profiles: false,
            traces: false,
        }
    }

    fn flagged(profiles: bool, traces: bool) -> Self {
        Member {
            profiles,
            traces,
            ..Member::new(0, &Rc::default())
        }
    }

    fn saw(&mut self, call: Call) {
        self.log.borrow_mut().push((self.tag, call));
    }
}

impl Probe for Member {
    fn on_event(&mut self, now: SimTime) {
        self.saw(Call::Event(now));
    }
    fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: SendFate) {
        self.saw(Call::Send(now, node, bytes, fate));
    }
    fn on_receive(&mut self, now: SimTime, node: NodeId, bytes: u64) {
        self.saw(Call::Receive(now, node, bytes));
    }
    fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
        self.saw(Call::Liveness(now, node, alive));
    }
    fn on_hop(&mut self, hop: HopRecord) {
        self.saw(Call::Hop(hop));
    }
    fn on_window(&mut self, work: WindowWork) {
        self.saw(Call::Window(work));
    }
    fn profiles(&self) -> bool {
        self.profiles
    }
    fn traces(&self) -> bool {
        self.traces
    }
}

fn hop() -> HopRecord {
    HopRecord {
        send_time: SimTime::from_millis(4),
        from: 1,
        to: 2,
        event: 77,
        topic: 3,
        kind: HopKind::GossipPush,
        bytes: 9,
        deliver_time: None,
    }
}

/// Fires every hook once, in a fixed order; returns what a lone observer
/// would have seen.
fn fire_all(obs: &mut impl Probe) -> Vec<Call> {
    let (t, node) = (SimTime::from_millis(5), NodeId::new(1));
    let window = WindowWork {
        index: 1,
        start: SimTime::ZERO,
        width: SimDuration::from_millis(5),
        straggler: Some(0),
        issued_end: t,
        end: t,
        events: 6,
        mailbox_msgs: 2,
        mailbox_bytes: 16,
        execute_ns: 1,
        exchange_ns: 2,
        fill_ns: 3,
        wait_ns: 4,
    };
    obs.on_event(t);
    obs.on_send(t, node, 8, SendFate::Lost);
    obs.on_receive(t, node, 8);
    obs.on_liveness(t, node, false);
    obs.on_hop(hop());
    obs.on_window(window);
    vec![
        Call::Event(t),
        Call::Send(t, node, 8, SendFate::Lost),
        Call::Receive(t, node, 8),
        Call::Liveness(t, node, false),
        Call::Hop(hop()),
        Call::Window(window),
    ]
}

#[test]
fn tuple_forwards_every_hook_once_to_each_member_in_order() {
    let log = Rc::default();
    let mut triple = (
        Member::new(0, &log),
        Member::new(1, &log),
        Member::new(2, &log),
    );
    let calls = fire_all(&mut triple);
    let expected: Vec<(u8, Call)> = calls
        .iter()
        .flat_map(|c| (0..3).map(move |tag| (tag, c.clone())))
        .collect();
    assert_eq!(*log.borrow(), expected);

    log.borrow_mut().clear();
    let mut pair = (Member::new(0, &log), Member::new(1, &log));
    let calls = fire_all(&mut pair);
    let expected: Vec<(u8, Call)> = calls
        .iter()
        .flat_map(|c| (0..2).map(move |tag| (tag, c.clone())))
        .collect();
    assert_eq!(*log.borrow(), expected);
}

#[test]
fn unit_and_none_see_nothing_and_ask_for_nothing() {
    fire_all(&mut ());
    assert!(!().profiles() && !().traces());
    let mut none: Option<Member> = None;
    fire_all(&mut none);
    assert!(!none.profiles() && !none.traces());
    // A tuple of nothing but nulls is itself null.
    let mut nulls = ((), None::<Member>, ());
    fire_all(&mut nulls);
    assert!(!nulls.profiles() && !nulls.traces());
}

#[test]
fn some_behaves_as_its_content() {
    let log = Rc::default();
    let mut some = Some(Member::new(7, &log));
    let calls = fire_all(&mut some);
    let expected: Vec<(u8, Call)> = calls.into_iter().map(|c| (7, c)).collect();
    assert_eq!(*log.borrow(), expected);
    for (profiles, traces) in [(false, false), (true, false), (false, true), (true, true)] {
        let some = Some(Member::flagged(profiles, traces));
        assert_eq!((some.profiles(), some.traces()), (profiles, traces));
    }
    // A lent observer behaves as the observer.
    log.borrow_mut().clear();
    let mut member = Member::new(7, &log);
    fire_all(&mut &mut member);
    assert_eq!(*log.borrow(), expected);
}

#[test]
fn tuple_predicates_are_the_or_of_the_members() {
    let bits = [false, true];
    for a in bits {
        for b in bits {
            let pair = (Member::flagged(a, b), Member::flagged(b, a));
            assert_eq!((pair.profiles(), pair.traces()), (a || b, a || b));
            for c in bits {
                let triple = (
                    Member::flagged(a, false),
                    Some(Member::flagged(b, false)),
                    Member::flagged(false, c),
                );
                assert_eq!((triple.profiles(), triple.traces()), (a || b, c));
            }
        }
    }
}

/// Chatty protocol exercising sends, losses, timers, randomness and
/// churn, whose messages each carry one traceable application event.
#[derive(Debug, Default)]
struct Chatter {
    rounds: u64,
}

impl Protocol for Chatter {
    type Msg = u64;
    type Cmd = u64;

    fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        if msg > 0 {
            let n = ctx.system_size() as u64;
            let to = NodeId::new(ctx.rng().range_u64(n) as u32);
            ctx.send(to, msg - 1);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _token: u64) {
        self.rounds += 1;
        if self.rounds < 20 {
            let n = ctx.system_size() as u64;
            let to = NodeId::new(ctx.rng().range_u64(n) as u32);
            ctx.send(to, 3);
            ctx.set_timer(SimDuration::from_millis(10), self.rounds);
        }
    }
    fn on_command(&mut self, ctx: &mut Context<'_, u64>, cmd: u64) {
        let n = ctx.system_size() as u64;
        let to = NodeId::new(ctx.rng().range_u64(n) as u32);
        ctx.send(to, cmd);
    }
    fn message_size(msg: &u64) -> usize {
        *msg as usize + 1
    }
    fn trace_payload(msg: &u64, emit: &mut dyn FnMut(u64, u32, u32, HopKind)) {
        emit(*msg, 0, *msg as u32 + 1, HopKind::GossipPush);
    }
}

/// Records every deterministic hook with the `(time, node)` it concerns
/// (`on_event` concerns no node).
#[derive(Debug, Default)]
struct Tape(Vec<(SimTime, Option<u32>, Call)>);

impl Probe for Tape {
    fn traces(&self) -> bool {
        true
    }
    fn on_event(&mut self, now: SimTime) {
        self.0.push((now, None, Call::Event(now)));
    }
    fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: SendFate) {
        let call = Call::Send(now, node, bytes, fate);
        self.0.push((now, Some(node.as_u32()), call));
    }
    fn on_receive(&mut self, now: SimTime, node: NodeId, bytes: u64) {
        let call = Call::Receive(now, node, bytes);
        self.0.push((now, Some(node.as_u32()), call));
    }
    fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
        let call = Call::Liveness(now, node, alive);
        self.0.push((now, Some(node.as_u32()), call));
    }
    fn on_hop(&mut self, hop: HopRecord) {
        self.0.push((hop.send_time, Some(hop.from), Call::Hop(hop)));
    }
}

/// Merges tapes by `(time, node)`. The sort is stable and every hook
/// about one node fires on the shard owning it, in execution order, so
/// two runs that agree per `(time, node)` merge to equal tapes.
fn merged(tapes: impl IntoIterator<Item = Tape>) -> Vec<(SimTime, Option<u32>, Call)> {
    let mut all: Vec<_> = tapes.into_iter().flat_map(|t| t.0).collect();
    all.sort_by_key(|&(time, node, _)| (time, node));
    all
}

#[test]
fn both_engines_show_an_observer_the_same_tape() {
    const N: usize = 16;
    let net = || {
        NetworkModel::lossy(
            LatencyModel::Uniform {
                lo: SimDuration::from_millis(2),
                hi: SimDuration::from_millis(40),
            },
            0.1,
        )
    };
    let horizon = SimTime::from_secs(1);
    // The engines share the `schedule_*` names but no trait.
    macro_rules! schedule {
        ($sim:ident) => {
            for i in 0..40u64 {
                let node = NodeId::new((i % 16) as u32);
                $sim.schedule_command(SimTime::from_millis(i * 7), node, i % 5);
            }
            $sim.schedule_crash(SimTime::from_millis(50), NodeId::new(3));
            $sim.schedule_join(SimTime::from_millis(140), NodeId::new(3));
        };
    }

    let mut seq = Simulation::new(N, net(), 42, |_, _| Chatter::default());
    schedule!(seq);
    let mut tape = Tape::default();
    let report = seq.run_until_observed(horizon, &mut tape);
    let expected = merged([tape]);
    let count = |tape: &[(SimTime, Option<u32>, Call)], pick: fn(&Call) -> bool| {
        tape.iter().filter(|(_, _, c)| pick(c)).count()
    };
    assert_eq!(
        count(&expected, |c| matches!(c, Call::Event(_))) as u64,
        report.events
    );
    assert!(count(&expected, |c| matches!(c, Call::Send(.., SendFate::Lost))) > 0);
    assert!(count(&expected, |c| matches!(c, Call::Receive(..))) > 0);
    assert_eq!(count(&expected, |c| matches!(c, Call::Liveness(..))), 2);
    assert_eq!(
        count(&expected, |c| matches!(c, Call::Hop(_))),
        count(&expected, |c| matches!(c, Call::Send(..))),
        "every message carries exactly one traced event"
    );

    for shards in [1, 2, 4, 7] {
        let mut cluster = ShardedSimulation::new(N, net(), 42, shards, |_, _| Chatter::default());
        schedule!(cluster);
        let mut tapes: Vec<Tape> = (0..shards).map(|_| Tape::default()).collect();
        cluster.run_until_observed(horizon, &mut tapes);
        assert_eq!(
            merged(tapes),
            expected,
            "{shards} shards showed their observers a different tape"
        );
    }
}
