//! Wire-protocol integration: the exact vectors Algorithm 1 exchanges,
//! captured from a live federation state, survive encode → decode and the
//! netsim payload accounting matches the encoded frames.

use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::state::FlState;
use hieradmo::core::Strategy;
use hieradmo::netsim::payload::payload_bytes;
use hieradmo::netsim::proto::Message;
use hieradmo::tensor::Vector;
use hieradmo::topology::{Hierarchy, Weights};

/// Drives one edge interval of HierAdMo on quadratic objectives and
/// returns the state right before an edge aggregation.
fn state_before_aggregation() -> FlState {
    let hierarchy = Hierarchy::balanced(2, 2);
    let weights = Weights::uniform(&hierarchy);
    let mut state = FlState::new(hierarchy, weights, &Vector::filled(8, 0.5));
    let algo = HierAdMo::adaptive(0.05, 0.5);
    algo.init(&mut state);
    for t in 1..=5 {
        for i in 0..4 {
            let centre: Vector = (0..8).map(|d| ((i + d) % 3) as f32).collect();
            let mut grad = |p: &Vector, g: &mut Vector| *g = p - &centre;
            algo.local_step(t, &mut state.workers[i], &mut grad);
        }
    }
    state
}

#[test]
fn worker_upload_round_trips_live_state() {
    let state = state_before_aggregation();
    for (i, w) in state.workers.iter().enumerate() {
        let msg = Message::WorkerUpload {
            sender: i as u32,
            round: 1,
            y: w.y.clone(),
            x: w.x.clone(),
            grad_sum: w.grad_accum.clone(),
            y_sum: w.y_accum.clone(),
        };
        let decoded = Message::decode(&msg.encode()).expect("valid frame");
        assert_eq!(decoded, msg, "worker {i} upload corrupted in transit");
    }
}

#[test]
fn edge_and_cloud_messages_round_trip() {
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let mut state = state_before_aggregation();
    algo.edge_aggregate(1, &mut state.edge_view(0));
    algo.edge_aggregate(1, &mut state.edge_view(1));
    for (l, e) in state.edges.iter().enumerate() {
        let broadcast = Message::EdgeBroadcast {
            sender: l as u32,
            round: 1,
            y_minus: e.y_minus.clone(),
            x_plus: e.x_plus.clone(),
        };
        let decoded = Message::decode(&broadcast.encode()).expect("valid frame");
        assert_eq!(decoded, broadcast);
    }
    algo.cloud_aggregate(1, &mut state);
    let cloud = Message::CloudBroadcast {
        round: 1,
        y: state.cloud.y_plus.clone(),
        x: state.cloud.x_plus.clone(),
    };
    assert_eq!(Message::decode(&cloud.encode()).unwrap(), cloud);
}

#[test]
fn payload_accounting_matches_encoded_frames() {
    // The fig2hl payload table charges HierAdMo 4 model-sized vectors per
    // upload; the actual protocol frame must agree to within the fixed
    // per-frame header overhead.
    let dim = 5_000;
    let v = Vector::filled(dim, 1.0);
    let msg = Message::WorkerUpload {
        sender: 0,
        round: 3,
        y: v.clone(),
        x: v.clone(),
        grad_sum: v.clone(),
        y_sum: v.clone(),
    };
    let frame_len = msg.encode().len() as u64;
    let accounted = payload_bytes(dim, 4);
    let diff = frame_len.abs_diff(accounted);
    assert!(
        diff < 64,
        "frame {frame_len} vs accounted {accounted}: headers differ by {diff} (> 64B)"
    );
}

#[test]
fn tampered_live_frames_are_rejected() {
    let state = state_before_aggregation();
    let msg = Message::ModelOnly {
        sender: 0,
        round: 9,
        x: state.workers[0].x.clone(),
    };
    let frame = msg.encode();
    // Bit-flip every byte position in a stride and confirm detection.
    for pos in (0..frame.len()).step_by(7) {
        let mut bad = frame.to_vec();
        bad[pos] ^= 0x01;
        assert!(
            Message::decode(&bad).is_err(),
            "flip at byte {pos} went undetected"
        );
    }
}
