//! Property fuzzing of the wire codec: round-trip identity on every
//! frame kind, and total (panic-free, never-partially-applied)
//! rejection of truncated, corrupted and version-skewed input — and of
//! directives that decode but do not fit the agent's shard.

use llc_net::{
    decode_directive, decode_frame, decode_heartbeat, decode_hello, decode_metrics,
    decode_observation, encode_directive, encode_frame, encode_heartbeat, encode_hello,
    encode_observation, Frame, FrameKind, Heartbeat, Hello, Role, WireError, HEADER_LEN, VERSION,
};

use llc_cluster::{
    Directive, DirectiveKind, Family, Level, MemberTelemetry, ModuleObservation, RunSpec,
};
use llc_sim::{PowerState, WindowStats};
use proptest::prelude::*;
use proptest::{collection, strategy::Strategy};

fn arb_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn arb_role() -> impl Strategy<Value = Role> {
    (0u8..2).prop_map(|b| {
        if b == 0 {
            Role::Agent
        } else {
            Role::Controller
        }
    })
}

fn arb_f64() -> impl Strategy<Value = f64> {
    // Magnitudes across many binades plus the special values whose bit
    // patterns must survive the wire untouched.
    prop_oneof![
        -1.0e12..1.0e12f64,
        0.0..1.0e-300f64,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

fn arb_state() -> impl Strategy<Value = PowerState> {
    prop_oneof![
        Just(PowerState::Off),
        Just(PowerState::On),
        Just(PowerState::Draining),
        (0.0..1.0e6f64).prop_map(|ready_at| PowerState::Booting { ready_at }),
    ]
}

fn arb_window() -> impl Strategy<Value = WindowStats> {
    (
        (0u64..1_000_000, 0u64..1_000_000, arb_f64()),
        (arb_f64(), 0u64..1_000_000, arb_f64()),
    )
        .prop_map(
            |((arrivals, completions, response_sum), (demand_sum, dropped, energy))| WindowStats {
                arrivals,
                completions,
                response_sum,
                demand_sum,
                dropped,
                energy,
            },
        )
}

fn arb_telemetry() -> impl Strategy<Value = MemberTelemetry> {
    (
        (0usize..64, 0usize..10_000, arb_window()),
        (arb_state(), 0usize..16),
        (arb_bool(), 0u64..1_000_000),
    )
        .prop_map(
            |((member, queue, window), (state, frequency_index), (telemetry_ok, rejected))| {
                MemberTelemetry {
                    member,
                    queue,
                    window,
                    state,
                    frequency_index,
                    telemetry_ok,
                    rejected,
                }
            },
        )
}

fn arb_observation() -> impl Strategy<Value = ModuleObservation> {
    (
        (0usize..32, 0u64..100_000),
        (
            collection::vec(arb_telemetry(), 1..8),
            0u64..1_000_000,
            0u64..1_000_000,
        ),
    )
        .prop_map(
            |((module, tick), (members, arrivals, dropped))| ModuleObservation {
                module,
                tick,
                members,
                arrivals,
                dropped,
            },
        )
}

fn arb_level() -> impl Strategy<Value = Level> {
    prop_oneof![Just(Level::L0), Just(Level::L1), Just(Level::L2)]
}

fn arb_kind() -> impl Strategy<Value = DirectiveKind> {
    prop_oneof![
        (0usize..64, 0usize..16)
            .prop_map(|(computer, index)| DirectiveKind::Frequency { computer, index }),
        (0usize..64, arb_bool())
            .prop_map(|(computer, on)| DirectiveKind::Activation { computer, on }),
        ((0usize..32, arb_bool()), collection::vec(0.0..1.0f64, 1..8)).prop_map(
            |((m, global), weights)| DirectiveKind::Split {
                module: if global { None } else { Some(m) },
                weights,
            }
        ),
        (0usize..32, arb_bool())
            .prop_map(|(module, active)| DirectiveKind::SafeMode { module, active }),
    ]
}

/// Directive payloads a two-machine, one-module shard mostly does not
/// have: computers and modules past its topology, frequency indices past
/// any table, splits of every length over every float.
fn arb_wild_kind() -> impl Strategy<Value = DirectiveKind> {
    prop_oneof![
        arb_kind(),
        (0usize..4, 0usize..4096)
            .prop_map(|(computer, index)| DirectiveKind::Frequency { computer, index }),
        ((0usize..3, arb_bool()), collection::vec(arb_f64(), 0..5)).prop_map(
            |((m, global), weights)| DirectiveKind::Split {
                module: if global { None } else { Some(m) },
                weights,
            }
        ),
    ]
}

fn arb_directive() -> impl Strategy<Value = Directive> {
    (
        (0u64..100_000, arb_f64(), arb_level()),
        (0u64..100_000, arb_kind()),
    )
        .prop_map(|((tick, time, level), (epoch, kind))| Directive {
            tick,
            time,
            level,
            epoch,
            kind,
        })
}

fn arb_hello() -> impl Strategy<Value = Hello> {
    (
        (arb_role(), 0u64..100_000, 0u64..100_000),
        (arb_f64(), 1u64..100_000, collection::vec(1u32..64, 1..6)),
    )
        .prop_map(
            |((role, tick, epoch), (t_l0, total_ticks, members_per_module))| Hello {
                role,
                tick,
                epoch,
                t_l0,
                total_ticks,
                members_per_module,
            },
        )
}

fn arb_heartbeat() -> impl Strategy<Value = Heartbeat> {
    (arb_role(), (0u64..100_000, 0u64..100_000), 0u32..10_000).prop_map(
        |(role, (tick, epoch), wedged)| Heartbeat {
            role,
            tick,
            epoch,
            wedged,
        },
    )
}

/// Bit-pattern equality: the wire promises IEEE-754 transparency, so
/// NaN == NaN at the bit level even though `PartialEq` says otherwise.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn observations_bits_eq(a: &ModuleObservation, b: &ModuleObservation) -> bool {
    a.module == b.module
        && a.tick == b.tick
        && a.arrivals == b.arrivals
        && a.dropped == b.dropped
        && a.members.len() == b.members.len()
        && a.members.iter().zip(&b.members).all(|(x, y)| {
            x.member == y.member
                && x.queue == y.queue
                && x.frequency_index == y.frequency_index
                && x.telemetry_ok == y.telemetry_ok
                && x.rejected == y.rejected
                && x.window.arrivals == y.window.arrivals
                && x.window.completions == y.window.completions
                && x.window.dropped == y.window.dropped
                && bits_eq(x.window.response_sum, y.window.response_sum)
                && bits_eq(x.window.demand_sum, y.window.demand_sum)
                && bits_eq(x.window.energy, y.window.energy)
                && match (x.state, y.state) {
                    (
                        PowerState::Booting { ready_at: ra },
                        PowerState::Booting { ready_at: rb },
                    ) => bits_eq(ra, rb),
                    (sa, sb) => sa == sb,
                }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frame_layer_round_trips(
        kind_tag in 1u8..=5,
        seq in 0u32..=u32::MAX,
        payload in collection::vec(0u8..=255, 0usize..300),
    ) {
        let kind = FrameKind::from_u8(kind_tag).expect("tags 1..=5 are valid");
        let frame = Frame::new(kind, seq, payload);
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(&bytes).expect("self-encoded frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back.version, VERSION);
        prop_assert_eq!(back.seq, frame.seq);
        prop_assert!(back.kind == frame.kind);
        prop_assert_eq!(back.payload, frame.payload);
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked(
        kind_tag in 1u8..=5,
        payload in collection::vec(0u8..=255, 0usize..64),
    ) {
        let kind = FrameKind::from_u8(kind_tag).expect("valid tag");
        let bytes = encode_frame(&Frame::new(kind, 7, payload));
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { have, need }) => {
                    prop_assert_eq!(have, cut);
                    prop_assert!(need > cut);
                }
                other => prop_assert!(false, "cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_headers_never_panic(
        seq in 0u32..=u32::MAX,
        payload in collection::vec(0u8..=255, 0usize..64),
        pos in 0usize..HEADER_LEN,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&Frame::new(FrameKind::Observation, seq, payload));
        bytes[pos] ^= flip;
        // Total: every corruption either still frames (a flipped seq or
        // a benign kind/len coincidence) or errors — never panics, and
        // magic/version damage is always caught.
        match decode_frame(&bytes) {
            Ok(_) | Err(_) => {}
        }
        if pos < 2 {
            prop_assert!(
                matches!(decode_frame(&bytes), Err(WireError::BadMagic(_))),
                "magic damage must be fatal"
            );
        } else if pos == 2 {
            prop_assert!(
                matches!(decode_frame(&bytes), Err(WireError::VersionSkew { .. })),
                "version skew must be fatal"
            );
        }
    }

    #[test]
    fn version_skew_is_rejected(version in 0u8..=255, payload in collection::vec(0u8..=255, 0usize..32)) {
        prop_assume!(version != VERSION);
        let mut bytes = encode_frame(&Frame::new(FrameKind::Hello, 0, payload));
        bytes[2] = version;
        match decode_frame(&bytes) {
            Err(WireError::VersionSkew { got, supported }) => {
                prop_assert_eq!(got, version);
                prop_assert_eq!(supported, VERSION);
            }
            other => prop_assert!(false, "expected VersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn hello_round_trips(hello in arb_hello()) {
        let back = decode_hello(&encode_hello(&hello)).expect("round trip");
        prop_assert!(back.role == hello.role);
        prop_assert_eq!(back.tick, hello.tick);
        prop_assert_eq!(back.epoch, hello.epoch);
        prop_assert!(bits_eq(back.t_l0, hello.t_l0));
        prop_assert_eq!(back.total_ticks, hello.total_ticks);
        prop_assert_eq!(back.members_per_module, hello.members_per_module);
    }

    #[test]
    fn heartbeat_round_trips(hb in arb_heartbeat()) {
        let back = decode_heartbeat(&encode_heartbeat(&hb)).expect("round trip");
        prop_assert!(back == hb);
    }

    #[test]
    fn observation_round_trips(observation in arb_observation()) {
        let back = decode_observation(&encode_observation(&observation)).expect("round trip");
        prop_assert!(
            observations_bits_eq(&back, &observation),
            "observation changed on the wire"
        );
    }

    #[test]
    fn directive_round_trips(directive in arb_directive()) {
        let back = decode_directive(&encode_directive(&directive)).expect("round trip");
        prop_assert_eq!(back.tick, directive.tick);
        prop_assert!(bits_eq(back.time, directive.time));
        prop_assert!(back.level == directive.level);
        prop_assert_eq!(back.epoch, directive.epoch);
        match (&back.kind, &directive.kind) {
            (
                DirectiveKind::Split { module: ma, weights: wa },
                DirectiveKind::Split { module: mb, weights: wb },
            ) => {
                prop_assert_eq!(ma, mb);
                prop_assert_eq!(wa.len(), wb.len());
                for (x, y) in wa.iter().zip(wb) {
                    prop_assert!(bits_eq(*x, *y));
                }
            }
            (a, b) => prop_assert_eq!(a, b),
        }
    }

    #[test]
    fn truncated_messages_reject_without_panic(observation in arb_observation()) {
        let bytes = encode_observation(&observation);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_observation(&bytes[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn message_decoders_are_total_on_noise(bytes in collection::vec(0u8..=255, 0usize..256)) {
        // Random bytes must never panic or abort any payload decoder —
        // Ok (a coincidence) and Err are both acceptable.
        let _ = decode_hello(&bytes);
        let _ = decode_heartbeat(&bytes);
        let _ = decode_observation(&bytes);
        let _ = decode_directive(&bytes);
        let _ = decode_metrics(&bytes);
    }

    #[test]
    fn corrupted_directive_payload_never_panics(
        directive in arb_directive(),
        pos_frac in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_directive(&directive);
        prop_assume!(!bytes.is_empty());
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= flip;
        let _ = decode_directive(&bytes);
    }

    #[test]
    fn decoded_out_of_topology_directives_are_refused_not_actuated(
        stream in collection::vec((0u64..100_000, arb_wild_kind()), 1..24),
    ) {
        let spec = RunSpec::defaults(Family::ClosedLoop(2));
        let store = spec.store();
        let mut agent = spec.plant(&store).expect("well-formed plant");
        let staged = stream.len() as u64;
        for (epoch, kind) in stream {
            let sent = Directive { tick: 0, time: 0.0, level: Level::L1, epoch, kind };
            agent.stage(decode_directive(&encode_directive(&sent)).expect("round trip"));
        }
        prop_assert!(agent.commit_window().is_ok(), "a refused directive must not fail the window");
        let report = agent.reconcile_report();
        prop_assert_eq!(
            report.applied + report.superseded + report.duplicates + report.rejected,
            staged
        );
        prop_assert_eq!(agent.applied_directives().len() as u64, report.applied);
        let sim = agent.adapter().sim();
        for d in agent.applied_directives() {
            let fits = match &d.kind {
                DirectiveKind::Frequency { computer, index } => {
                    *computer < 2 && *index < sim.computer(*computer).frequencies().len()
                }
                DirectiveKind::Activation { computer, .. } => *computer < 2,
                DirectiveKind::Split { module, weights } => {
                    *module != Some(1)
                        && weights.len() == if module.is_some() { 2 } else { 1 }
                        && weights.iter().all(|w| w.is_finite() && *w >= 0.0)
                }
                DirectiveKind::SafeMode { module, .. } => *module == 0,
            };
            prop_assert!(fits, "actuated a directive the shard does not have: {d:?}");
        }
    }
}
