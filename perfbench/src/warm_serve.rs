//! `warm_serve`: `warm_infer` and `serve_plan` on one set-up, so that
//! one workload covers every compile-once/run-many layer. `main_s` is
//! warm_infer's functional frames (NVDLA engine compute); `run_s` is all
//! the timing-only work: warm_infer's timing-only frames plus
//! serve_plan's plan matrix and replays (ISS, timing model and the
//! queueing simulators).

use rvnv_obs::Json;

use crate::serve::{self, Plan};
use crate::warm::{self, Warm};
use crate::{Cx, Pass, Workload};

pub struct WarmServe;

impl Workload for WarmServe {
    type State = (warm::State, serve::State);
    const SETUP_REPEATS: usize = 3;
    const STAGE_NAMES: [&'static str; 2] = [
        "one functional frame on each resident model",
        "the same frames timing-only, the serve and fleet plan matrix and the four replays",
    ];

    fn setup(&self, cx: &mut Cx) -> Self::State {
        (Warm.setup(cx), Plan.setup(cx))
    }

    fn pass(&self, cx: &mut Cx, (w, s): &mut Self::State, index: u64) -> Pass {
        let frames = Warm.pass(cx, w, index);
        let mut p = Plan.pass(cx, s, index);
        let timing_only = frames["run_s"] + p["main_s"] + p["run_s"];
        p.insert("main_s", frames["main_s"]);
        p.insert("run_s", timing_only);
        p
    }

    fn summary(&self, (w, s): &Self::State) -> (Vec<String>, Json) {
        let (mut lines, warm) = Warm.summary(w);
        let (plan_lines, plan) = Plan.summary(s);
        lines.extend(plan_lines);
        (lines, Json::Arr(vec![warm, plan]))
    }
}
