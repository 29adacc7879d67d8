//! Shared helpers for the table/figure reproduction benches.

use rvnv_bus::dram::DramTiming;
use rvnv_compiler::{compile, Artifacts, CompileOptions};
use rvnv_nn::hash::Fnv;
use rvnv_nn::stats::{ModelStats, Precision as NnPrecision};
use rvnv_nn::zoo::Model;
use rvnv_nvdla::config::Precision;
use rvnv_nvdla::descriptor::ConvDesc;
use rvnv_soc::soc::{InferenceResult, SocConfig};

/// Determinism fingerprint of one simulated inference: a hash over
/// every observable the fast simulator kernels must not change — the
/// raw output bytes left in DRAM, the retired instruction count, and
/// the modeled cycle count. Two runs with the same fingerprint took
/// the same architectural path; the fast-kernel acceptance gate
/// asserts fingerprints are equal with the kernels on and off *before*
/// any timing is measured.
#[must_use]
pub fn inference_fingerprint(r: &InferenceResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&r.raw_output);
    h.mix(r.instructions);
    h.mix(r.cycles);
    h.finish()
}

/// Pretty-print a table with a title and aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", cols.join(" | "));
    };
    fmt_row(&header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        fmt_row(row);
    }
}

/// Format a cycle count at `hz` the way the paper prints times
/// (ms below a second, seconds above).
pub fn format_time(cycles: u64, hz: u64) -> String {
    let ms = cycles as f64 * 1000.0 / hz as f64;
    if ms >= 1000.0 {
        format!("{:.1} s", ms / 1000.0)
    } else if ms >= 10.0 {
        format!("{ms:.0} ms")
    } else {
        format!("{ms:.1} ms")
    }
}

/// The Table II/III "Model Size" column (fp32 Caffe file).
pub fn model_size_string(model: Model) -> String {
    ModelStats::of(&model.build(1)).model_size_string(NnPrecision::Fp32)
}

/// Input-size column, e.g. `3x224x224`.
pub fn input_string(model: Model) -> String {
    model.build(1).input_shape().to_string()
}

/// Compile a model for the paper's `nv_small` trace-replay flow
/// (INT8, unfused, single calibration input to keep benches fast).
pub fn compile_nv_small(model: Model) -> Artifacts {
    let mut opt = CompileOptions::int8().unfused();
    opt.calib_inputs = 1;
    compile(&model.build(1), &opt).expect("nv_small models compile")
}

/// Compile a model for `nv_full` FP16 simulation.
pub fn compile_nv_full(model: Model) -> Artifacts {
    compile(&model.build(1), &CompileOptions::fp16()).expect("nv_full models compile")
}

/// The SoC configuration used for Table II (timing-only for speed; the
/// functional path is exercised by the test suite).
pub fn table2_soc_config() -> SocConfig {
    SocConfig::zcu102_timing_only()
}

/// Memory timing used for `nv_full` VP simulation.
///
/// The official VP's SystemC memory is a behavioral model that delivers
/// on the order of 4 bytes/cycle regardless of the configured DBB width
/// — visible in the paper's Table III, where AlexNet's 122 MB of FP16
/// weights take 35.5 M cycles (~3.4 B/cycle). We reproduce that
/// behaviour with a 32-bit-per-beat memory and moderate latencies.
pub fn nv_full_vp_timing() -> DramTiming {
    DramTiming {
        cas: 6,
        rcd: 6,
        rp: 6,
        controller: 4,
        row_bytes: 2048,
        bytes_per_beat: 4,
    }
}

/// A convolution descriptor over a square input and kernel, with fixed
/// input and weight scales: the shapes the conv-kernel benches and the
/// determinism gate feed to the engine.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn conv_desc(
    in_c: u32,
    in_hw: u32,
    out_c: u32,
    k: u32,
    stride: u32,
    pad: u32,
    groups: u32,
    precision: Precision,
) -> ConvDesc {
    let out_hw = (in_hw + 2 * pad - k) / stride + 1;
    ConvDesc {
        src: 0,
        in_w: in_hw,
        in_h: in_hw,
        in_c,
        wt_addr: 0,
        wt_bytes: out_c * (in_c / groups) * k * k * precision.bytes(),
        stride,
        pad,
        out_w: out_hw,
        out_h: out_hw,
        out_c,
        kw: k,
        kh: k,
        groups,
        in_scale: 0.031,
        wt_scale: 0.27,
        precision,
    }
}
