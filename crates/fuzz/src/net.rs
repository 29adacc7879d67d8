//! `net` target: randomized small networks compiled and run through
//! the full SoC, functional flow vs timing-only flow. The standing
//! contract (pinned for the zoo models by `tests/properties.rs`) is
//! that the timing-only flow walks the exact same instruction stream:
//! identical cycles, retired instructions, pipeline and engine
//! accounting, and op schedule length — the output alone is never
//! computed. Here the same equality must hold for networks nobody
//! hand-tuned the compiler for.
//!
//! Before the SoC runs, the golden executor's activation of every conv
//! node must equal the naive convolution oracle
//! (`rvnv_nn::conv::golden_reference`) bit for bit: the lane kernel
//! keeps each output's summation order, so not one bit may move.
//!
//! A plan that fails to build or compile is a passing case, not a
//! counterexample — the generator only emits buildable plans, but the
//! shrinker explores arbitrary layer subsets and must be free to cross
//! inconsistent intermediates.

use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::{compile, CompileOptions};
use rvnv_nn::conv;
use rvnv_nn::exec::Executor;
use rvnv_nn::tensor::Tensor;
use rvnv_nn::{Network, Op};
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{Soc, SocConfig};
use rvnv_util::mix64;

use crate::gen::{self, NetPlan};
use crate::{shrink, FuzzTarget};

/// Every conv node's golden activation against the naive oracle, by
/// bit pattern. A network the executor rejects passes.
fn golden_matches_oracle(net: &Network, input: &Tensor) -> Result<(), String> {
    let Ok(exec) = Executor::try_new(net) else {
        return Ok(());
    };
    let acts = exec
        .run_all(input)
        .map_err(|e| format!("golden run failed: {e}"))?;
    for (node, act) in net.nodes().iter().zip(&acts) {
        let Op::Conv2d(p) = &node.op else {
            continue;
        };
        let want = conv::golden_reference(&acts[node.inputs[0].index()], p, act.shape());
        let diverged = act
            .data()
            .iter()
            .zip(want.data())
            .position(|(a, b)| a.to_bits() != b.to_bits());
        if let Some(i) = diverged {
            return Err(format!(
                "golden conv {} diverged from the naive oracle at element {i}: {} vs {}",
                node.name,
                act.data()[i],
                want.data()[i]
            ));
        }
    }
    Ok(())
}

/// The functional-vs-timing-only differential target.
pub struct NetTarget;

impl FuzzTarget for NetTarget {
    type Input = NetPlan;
    const NAME: &'static str = "net";

    fn generate(&self, seed: u64) -> NetPlan {
        gen::net_plan(seed)
    }

    fn check(&self, plan: &NetPlan) -> Result<(), String> {
        let Ok(net) = plan.build() else {
            return Ok(());
        };
        let input = Tensor::random(plan.input_shape(), mix64(plan.weight_seed));
        golden_matches_oracle(&net, &input)?;
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let Ok(artifacts) = compile(&net, &opt) else {
            return Ok(());
        };
        // A compiled artifact must always yield firmware and run; from
        // here on every failure is a finding.
        let wfi = plan.weight_seed & 1 == 0;
        let codegen = CodegenOptions {
            wait_mode: if wfi { WaitMode::Wfi } else { WaitMode::Poll },
            ..CodegenOptions::default()
        };
        let fw = Firmware::build_with(&artifacts, codegen)
            .map_err(|e| format!("firmware build failed on a compiled artifact: {e}"))?;
        let bytes = artifacts.quantize_input(&input);
        let mut functional = Soc::new(SocConfig::zcu102_nv_small());
        let mut timing = Soc::new(SocConfig {
            capture_timeline: true,
            ..SocConfig::zcu102_timing_only()
        });
        let f = functional
            .run_firmware(&artifacts, &bytes, &fw)
            .map_err(|e| format!("functional run failed: {e}"))?;
        let t = timing
            .run_firmware(&artifacts, &bytes, &fw)
            .map_err(|e| format!("timing-only run failed: {e}"))?;
        let mut diffs = Vec::new();
        if f.cycles != t.cycles {
            diffs.push(format!("cycles {} != {}", f.cycles, t.cycles));
        }
        if f.firmware_cycles != t.firmware_cycles {
            diffs.push(format!(
                "mcycle {} != {}",
                f.firmware_cycles, t.firmware_cycles
            ));
        }
        if f.instructions != t.instructions {
            diffs.push(format!("retired {} != {}", f.instructions, t.instructions));
        }
        if f.pipeline != t.pipeline {
            diffs.push("pipeline stats diverged".into());
        }
        if f.cpu_arbiter_wait != t.cpu_arbiter_wait {
            diffs.push(format!(
                "arbiter wait {} != {}",
                f.cpu_arbiter_wait, t.cpu_arbiter_wait
            ));
        }
        if f.nvdla != t.nvdla {
            diffs.push("engine op/cycle accounting diverged".into());
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "timing-only diverged from functional (wfi={wfi}): {}",
                diffs.join("; ")
            ))
        }
    }

    fn shrink(&self, input: NetPlan, fails: &dyn Fn(&NetPlan) -> bool) -> NetPlan {
        let template = input.clone();
        let layers = shrink::shrink_elements(input.layers, |ls| {
            let cand = NetPlan {
                layers: ls.to_vec(),
                ..template.clone()
            };
            fails(&cand)
        });
        NetPlan { layers, ..template }
    }

    fn size(input: &NetPlan) -> usize {
        input.layers.len()
    }
}
