"""The simulator's output pinned bit for bit (float.hex of every field), so a
change that moves any estimate shows here, whatever the thread count."""

import dataclasses

import numpy as np
import pytest

from privacy_lab import (
    BatchParams,
    MarketParams,
    SimConfig,
    batched_equilibrium,
    simulate,
    simulate_batched,
    solve_closed_form,
    verify_best_response,
)

CFG = SimConfig(200_000, 5, chunk_size=4096)
NOISY = MarketParams(2.0, 0.7, 1.3, p0=5.0)
QUIET = MarketParams(1.3, 0.8, 0.0, p0=2.0)
BATCHED = BatchParams(MarketParams(1.0, 1.0, p0=1.0), 4)
UNIT = MarketParams(1.0, 1.0, 1.0)


def hexed(obj):
    """Every field of a result dataclass, floats as float.hex."""
    if dataclasses.is_dataclass(obj):
        return {f.name: hexed(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [float(a).hex() for a in obj]
    if isinstance(obj, float):
        return obj.hex()
    return obj


RUNS = {
    "noisy": lambda: simulate(NOISY, solve_closed_form(NOISY), CFG).stats,
    "quiet": lambda: simulate(QUIET, solve_closed_form(QUIET), CFG).stats,
    "batched": lambda: simulate_batched(BATCHED, batched_equilibrium(BATCHED), CFG),
    "best": lambda: verify_best_response(UNIT, solve_closed_form(UNIT), v=1.0, grid_halfwidth=0.5, n_grid=5, cfg=CFG),
}

PINNED = {
    "noisy": {
        "pnl_informed": {"n": 200000, "mean": "0x1.7b5d9ebcf7e49p+0", "m2": "0x1.43e32b07bffa9p+20"},
        "pnl_noise": {"n": 200000, "mean": "-0x1.53e7809162ec8p-2", "m2": "0x1.aa8ab2d2b7494p+17"},
        "pnl_maker": {"n": 200000, "mean": "-0x1.2663be989f296p+0", "m2": "0x1.49d5ff4c48e47p+20"},
        "signal_value": {
            "n": 200000,
            "mean_x": "-0x1.cae9330bb6a39p-8",
            "mean_y": "-0x1.351fa351f78cdp-7",
            "m2_x": "0x1.adf5c28126243p+19",
            "m2_y": "0x1.89aab3be7c514p+19",
            "c_xy": "0x1.23d0bd759cc24p+19",
        },
        "price_value": {
            "n": 200000,
            "mean_x": "0x1.3f65702e57044p+2",
            "mean_y": "0x1.3fb24bec4402ap+2",
            "m2_x": "0x1.89aab3be7c514p+19",
            "m2_y": "0x1.8a756e559ac5bp+18",
            "c_xy": "0x1.8b48de6407eb8p+18",
        },
    },
    "quiet": {
        "pnl_informed": {"n": 200000, "mean": "0x1.0be968999b727p-1", "m2": "0x1.41e1d41bdf4e9p+17"},
        "pnl_noise": {"n": 200000, "mean": "-0x1.0928407639b42p-1", "m2": "0x1.3c75c73f9a81ep+17"},
        "pnl_maker": {"n": 200000, "mean": "-0x1.609411b0df174p-8", "m2": "0x1.aaa3cc4c0b107p+17"},
        "signal_value": {
            "n": 200000,
            "mean_x": "-0x1.fa4ee09c49b7dp-9",
            "mean_y": "-0x1.91dc5450f5040p-8",
            "m2_x": "0x1.f613cf59f5513p+17",
            "m2_y": "0x1.4ca600d800169p+18",
            "c_xy": "0x1.9a08ee6667a11p+17",
        },
        "price_value": {
            "n": 200000,
            "mean_x": "0x1.fe6e23abaf0b1p+0",
            "mean_y": "0x1.ff324ff4c0820p+0",
            "m2_x": "0x1.4ca600d800169p+18",
            "m2_y": "0x1.4b7313e262f27p+17",
            "c_xy": "0x1.4d2741b33432fp+17",
        },
    },
    "batched": {
        "mean_pi_I": "0x1.024ad03ee7509p+0",
        "mean_pi_N": "-0x1.fd5594ff2bac6p-1",
        "mean_pi_M": "-0x1.d002dfa8bd36ap-7",
        "se_pi_I": "0x1.000c29c5645f8p-8",
        "se_pi_N": "0x1.fc8dbac7cd26dp-9",
        "se_pi_M": "0x1.2680637c4f073p-8",
        "n": 200000,
    },
    "best": {
        "grid": [
            "0x1.6a09e667f3bcdp-1",
            "0x1.0f876ccdf6cdap+0",
            "0x1.6a09e667f3bcdp+0",
            "0x1.c48c6001f0ac0p+0",
            "0x1.0f876ccdf6cdap+1",
        ],
        "estimates": [
            "0x1.0f8a12e441689p-1",
            "0x1.536d4122e4697p-1",
            "0x1.6a0f329488f2bp-1",
            "0x1.536fe7392f046p-1",
            "0x1.0f8f5f10d69e7p-1",
        ],
        "ses": [
            "0x1.9f154376694e9p-11",
            "0x1.374ff298cefafp-10",
            "0x1.9f154376694e9p-10",
            "0x1.036d4a2a01d12p-9",
            "0x1.374ff298cefafp-9",
        ],
        "analytic": [
            "0x1.0f876ccdf6cdap-1",
            "0x1.5369480174810p-1",
            "0x1.6a09e667f3bcdp-1",
            "0x1.5369480174810p-1",
            "0x1.0f876ccdf6cdap-1",
        ],
        "argmax_x": "0x1.6a09e667f3bcdp+0",
        "x_star": "0x1.6a09e667f3bcdp+0",
        "grid_step": "0x1.6a09e667f3bcep-2",
        "n_paths": 200000,
    },
}


@pytest.mark.parametrize("threads", ["1", "2", "6"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_bits_match_the_record(run, threads, monkeypatch):
    monkeypatch.setenv("PRIVACY_LAB_THREADS", threads)
    assert hexed(RUNS[run]()) == PINNED[run]
