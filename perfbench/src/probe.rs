//! Layer probes of the traced run: the LP, rounding and codec layers called
//! directly on a workload's own inputs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use svgic_algorithms::avg::round_with_factors;
use svgic_algorithms::factors::RelaxationOptions;
use svgic_algorithms::{solve_relaxation, LpBackend, SamplingScheme};
use svgic_core::ip_model::build_lp_simp;
use svgic_core::SvgicInstance;
use svgic_engine::{decode_request, decode_response, encode_request, encode_response};

use crate::replay::Frame;
use crate::spans::{nanos_between, now, SpanLog, NO_SPAN};

/// `build_lp_simp`, `solve_relaxation` and `round_with_factors` on each
/// distinct template instance of a trace.
#[derive(Debug, Default)]
pub struct LpProbe {
    pub instances: usize,
    pub rows: usize,
    pub cols: usize,
    /// Instances `LpBackend::Auto` sent to the exact simplex.
    pub exact: usize,
    pub solve_ns: u64,
    pub round_ns: u64,
    /// Rounded configurations that failed `is_valid`.
    pub invalid: usize,
}

pub fn lp_probe(instances: &[SvgicInstance], seed: u64, log: &mut SpanLog) -> LpProbe {
    let mut probe = LpProbe {
        instances: instances.len(),
        ..LpProbe::default()
    };
    let options = RelaxationOptions::default();
    let root = log.open("probe.lp", NO_SPAN, 0);
    for (index, instance) in instances.iter().enumerate() {
        let request = index as u64 + 1;
        let span = log.open("lp.probe.build", root, request);
        let model = build_lp_simp(instance);
        log.close(span);
        probe.rows += model.lp.num_constraints();
        probe.cols += model.lp.num_variables();

        let t0 = now();
        let factors = solve_relaxation(instance, &options);
        let t1 = now();
        log.record("lp.probe.solve", root, request, t0, t1);
        probe.solve_ns += nanos_between(t0, t1);
        if factors.backend == LpBackend::ExactSimplex {
            probe.exact += 1;
        }

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ request);
        let t0 = now();
        let (configuration, _) = round_with_factors(
            instance,
            &factors,
            None,
            SamplingScheme::Advanced,
            10_000,
            &mut rng,
        );
        let t1 = now();
        log.record("algorithms.probe.round", root, request, t0, t1);
        probe.round_ns += nanos_between(t0, t1);
        if !configuration.is_valid(instance.num_items()) {
            probe.invalid += 1;
        }
    }
    log.close(root);
    probe
}

/// Every request and reply of a replay, encoded once and decoded once with
/// `svgic_engine::codec`.
#[derive(Debug, Default)]
pub struct CodecProbe {
    pub frames: usize,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub encode_ns: u64,
    pub decode_ns: u64,
    /// Frames that failed to decode or re-encoded to different bytes.
    pub mismatched: usize,
}

pub fn codec_probe(frames: &[Frame], log: &mut SpanLog) -> CodecProbe {
    let root = log.open("probe.codec", NO_SPAN, 0);
    let t0 = now();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(request, response)| (encode_request(request), encode_response(response)))
        .collect();
    let t1 = now();
    let decoded: Vec<_> = encoded
        .iter()
        .map(|(request, response)| (decode_request(request), decode_response(response)))
        .collect();
    let t2 = now();
    log.record("codec.probe.encode", root, 0, t0, t1);
    log.record("codec.probe.decode", root, 0, t1, t2);
    log.close(root);

    let mismatched = encoded
        .iter()
        .zip(&decoded)
        .filter(|((request, response), (request_back, response_back))| {
            let request_ok = matches!(request_back, Ok(back) if encode_request(back) == *request);
            let response_ok =
                matches!(response_back, Ok(back) if encode_response(back) == *response);
            !(request_ok && response_ok)
        })
        .count();
    CodecProbe {
        frames: frames.len(),
        request_bytes: encoded.iter().map(|(request, _)| request.len()).sum(),
        response_bytes: encoded.iter().map(|(_, response)| response.len()).sum(),
        encode_ns: nanos_between(t0, t1),
        decode_ns: nanos_between(t1, t2),
        mismatched,
    }
}
