//! Golden-executor oracle: pinned FNV digests of the f32 reference
//! executor on LeNet-5 and ResNet-18.
//!
//! Two things are pinned per model (`Model::build(1)`):
//!
//! * the INT8 calibration table text (`CalibrationTable::to_text`) for
//!   one calibration input at the compiler's default `calib_seed`;
//! * the bit pattern of every activation `Executor::run_all` returns
//!   on a fixed input.
//!
//! Convolution dominates both, and its f32 summation order is part of
//! the contract: any change to that order (or to any other golden
//! layer) moves a digest. The failure prints the recomputed value.

use rvnv_compiler::CompileOptions;
use rvnv_nn::exec::Executor;
use rvnv_nn::hash::Fnv;
use rvnv_nn::quant::CalibrationTable;
use rvnv_nn::zoo::Model;
use rvnv_nn::Tensor;

/// Input seed of the activation digests.
const INPUT_SEED: u64 = 7;

fn calibration_digest(model: Model) -> u64 {
    let net = model.build(1);
    let seed = CompileOptions::int8().calib_seed;
    let inputs = [Tensor::random(net.input_shape(), seed)];
    let table = CalibrationTable::calibrate(&net, &inputs).expect("calibrate");
    let mut h = Fnv::new();
    h.str(&table.to_text());
    h.finish()
}

fn activation_digest(model: Model) -> u64 {
    let net = model.build(1);
    let input = Tensor::random(net.input_shape(), INPUT_SEED);
    let acts = Executor::new(&net).run_all(&input).expect("golden run");
    let mut h = Fnv::new();
    for t in &acts {
        h.floats(t.data());
    }
    h.finish()
}

/// `(model, calibration digest, activation digest)`.
const PINNED: [(Model, u64, u64); 2] = [
    (Model::LeNet5, 0x567f_49d5_bdb6_8045, 0xda55_7503_3a65_5600),
    (
        Model::ResNet18,
        0x8d7f_31eb_ac44_e448,
        0x47dd_d203_edd8_0076,
    ),
];

#[test]
fn calibration_tables_are_pinned() {
    for (model, pinned, _) in PINNED {
        let got = calibration_digest(model);
        assert_eq!(
            got,
            pinned,
            "{} calibration digest moved: recomputed 0x{got:016x}",
            model.name()
        );
    }
}

#[test]
fn activations_are_pinned() {
    for (model, _, pinned) in PINNED {
        let got = activation_digest(model);
        assert_eq!(
            got,
            pinned,
            "{} activation digest moved: recomputed 0x{got:016x}",
            model.name()
        );
    }
}
