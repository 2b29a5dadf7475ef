//! Robustness fuzzing of the sans-IO node machine: arbitrary message
//! sequences from arbitrary senders must never panic the machine or
//! violate its structural invariants. (The UDP transport feeds the
//! machine whatever decodes — a hostile peer controls these inputs.)
//! Every input also checks the contract executors rely on to learn a
//! machine's fate: a `fatal_error()` implies `has_left()`, and a machine
//! that has left returns no outputs and changes nothing.

use bytes::Bytes;
use peerwindow::prelude::*;
use proptest::prelude::*;

fn arb_level() -> impl Strategy<Value = Level> {
    (0u8..=128).prop_map(Level::new)
}

fn arb_target() -> impl Strategy<Value = Target> {
    (any::<u128>(), any::<u64>(), arb_level()).prop_map(|(id, addr, level)| Target {
        id: NodeId(id),
        addr: Addr(addr),
        level,
    })
}

fn arb_pointer() -> impl Strategy<Value = Pointer> {
    (
        any::<u128>(),
        any::<u64>(),
        arb_level(),
        proptest::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|(id, addr, level, info)| {
            Pointer::with_info(NodeId(id), Addr(addr), level, Bytes::from(info))
        })
}

fn arb_event() -> impl Strategy<Value = StateEvent> {
    (
        any::<u128>(),
        any::<u64>(),
        arb_level(),
        0u8..5,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(subject, addr, level, kind, seq, origin)| StateEvent {
            subject: NodeId(subject),
            addr: Addr(addr),
            level,
            kind: match kind {
                0 => EventKind::Join,
                1 => EventKind::Leave,
                2 => EventKind::LevelShift {
                    from: Level::new(seq as u8 & 0x7F),
                },
                3 => EventKind::InfoChange,
                _ => EventKind::Refresh,
            },
            seq,
            origin_us: origin,
            info: Bytes::new(),
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Probe),
        Just(Message::ProbeAck),
        arb_event().prop_map(|event| Message::Report { event }),
        (
            any::<u128>(),
            any::<u64>(),
            proptest::collection::vec(arb_target(), 0..4)
        )
            .prop_map(|(id, seq, tops)| Message::ReportAck {
                key: (NodeId(id), seq),
                tops,
            }),
        (arb_event(), any::<u8>()).prop_map(|(event, step)| Message::Multicast {
            event,
            step: step.min(128),
        }),
        (any::<u128>(), any::<u64>()).prop_map(|(id, seq)| Message::MulticastAck {
            key: (NodeId(id), seq)
        }),
        any::<u128>().prop_map(|id| Message::FindTop { joiner: NodeId(id) }),
        proptest::collection::vec(arb_target(), 0..4)
            .prop_map(|tops| Message::FindTopReply { tops }),
        Just(Message::LevelQuery),
        (arb_level(), any::<f64>())
            .prop_map(|(level, cost_bps)| Message::LevelQueryReply { level, cost_bps }),
        (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Message::Download {
            scope: Prefix::new(bits, len)
        }),
        (
            any::<u128>(),
            0u8..=128,
            proptest::collection::vec(arb_pointer(), 0..6),
            proptest::collection::vec(arb_target(), 0..4),
        )
            .prop_map(|(bits, len, pointers, tops)| Message::DownloadReply {
                scope: Prefix::new(bits, len),
                pointers,
                tops,
            }),
        Just(Message::TopListRequest),
        proptest::collection::vec(arb_target(), 0..4)
            .prop_map(|tops| Message::TopListReply { tops }),
    ]
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        (any::<u128>(), any::<u64>(), arb_message()).prop_map(|(from, addr, msg)| {
            Input::Message {
                from: NodeId(from),
                from_addr: Addr(addr),
                msg,
            }
        }),
        prop_oneof![
            Just(Timer::Probe),
            any::<u64>().prop_map(Timer::RpcTimeout),
            Just(Timer::Adapt),
            Just(Timer::Refresh),
            Just(Timer::Expire),
            Just(Timer::Reconcile),
        ]
        .prop_map(Input::Timer),
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..8)
                .prop_map(|b| Command::ChangeInfo(Bytes::from(b))),
            any::<f64>().prop_map(Command::SetThreshold),
            arb_level().prop_map(Command::SetLevel),
            Just(Command::Shutdown),
        ]
        .prop_map(Input::Command),
    ]
}

/// Structural invariants that must hold after every input.
fn check_invariants(m: &NodeMachine) {
    // The peer list never stores the node itself.
    assert!(m.peers().get(m.id()).is_none(), "self-pointer in peer list");
    // The scope always matches the level (eigenstring).
    assert_eq!(m.peers().scope().len(), {
        // During joining the scope may still be the default; only check
        // once active.
        if m.is_active() {
            m.level().value()
        } else {
            m.peers().scope().len()
        }
    });
    // Top list never exceeds capacity.
    assert!(m.tops().len() <= m.tops().capacity());
}

/// Feeds one input, checking the fate contract around it.
fn step(m: &mut NodeMachine, now_us: u64, input: Input) -> Vec<Output> {
    let left_before = m.has_left();
    let before = (m.stats(), m.level(), m.peers().len());
    let outs = m.handle(now_us, input);
    if left_before {
        assert!(outs.is_empty(), "a left machine returned {outs:?}");
        assert_eq!(
            (m.stats(), m.level(), m.peers().len()),
            before,
            "a left machine changed"
        );
    }
    assert!(
        m.fatal_error().is_none() || m.has_left(),
        "fatal error {:?} on a machine that has not left",
        m.fatal_error()
    );
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A seed node fed arbitrary garbage never panics and keeps its
    /// invariants.
    #[test]
    fn seed_survives_arbitrary_inputs(
        inputs in proptest::collection::vec(arb_input(), 1..60),
        seed in any::<u64>(),
    ) {
        let (mut m, _) = NodeMachine::new_seed(
            ProtocolConfig::default(),
            NodeId(0xFEED_FACE),
            Addr(1),
            Bytes::new(),
            5_000.0,
            seed,
        );
        let mut t = 0u64;
        for input in inputs {
            t += 250_000;
            let outs = step(&mut m, t, input);
            // Outputs are structurally sane: sends go to real addresses,
            // timers have bounded delays.
            for o in &outs {
                if let Output::SetTimer { delay_us, .. } = o {
                    prop_assert!(*delay_us < 24 * 3_600_000_000, "absurd timer {delay_us}");
                }
            }
            check_invariants(&m);
        }
    }

    /// A joining node fed arbitrary garbage (including fake replies to its
    /// join RPCs) never panics.
    #[test]
    fn joiner_survives_arbitrary_inputs(
        inputs in proptest::collection::vec(arb_input(), 1..60),
        seed in any::<u64>(),
    ) {
        let boot = Target {
            id: NodeId(42),
            addr: Addr(2),
            level: Level::TOP,
        };
        let (mut m, _) = NodeMachine::new_joining(
            ProtocolConfig::default(),
            NodeId(0xDEAD_BEEF),
            Addr(1),
            Bytes::new(),
            5_000.0,
            boot,
            seed,
        );
        let mut t = 0u64;
        for input in inputs {
            t += 250_000;
            let _ = step(&mut m, t, input);
            check_invariants(&m);
        }
    }

    /// Time never flows backwards for the machine even if inputs repeat
    /// the same timestamp (the engine guarantees monotonicity; the machine
    /// must tolerate equal timestamps).
    #[test]
    fn equal_timestamps_are_tolerated(
        inputs in proptest::collection::vec(arb_input(), 1..30),
    ) {
        let (mut m, _) = NodeMachine::new_seed(
            ProtocolConfig::default(),
            NodeId(7),
            Addr(1),
            Bytes::new(),
            5_000.0,
            1,
        );
        for input in inputs {
            let _ = step(&mut m, 1_000_000, input);
            check_invariants(&m);
        }
    }
}
