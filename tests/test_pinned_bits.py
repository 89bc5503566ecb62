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
BASE = MarketParams(1.3, 0.9, p0=-0.5)
ONE_CHUNK = SimConfig(50_000, 7)  # one default-size chunk
THREE_CHUNKS = SimConfig(150_000, 9)  # fewer chunks than the 6-thread cap
TAUS = (1, 7, 8, 9, 16, 17)  # either side of 8, where numpy's pairwise sum unrolls
# chunk layouts of the runner's groups of equal-width chunks side by side in
# one workspace: widths that do not divide it (with a partial last chunk),
# two to a workspace, and one wider than a workspace
NARROW = SimConfig(150_500, 17, chunk_size=1000)  # groups of 65, 65, 20 and 1 chunks
ODD = SimConfig(100_000, 19, chunk_size=3000)  # groups of 21, 12 and 1
PAIRS = SimConfig(150_000, 23, chunk_size=32_768)  # groups of 2, 2 and 1
WIDE = SimConfig(140_000, 29, chunk_size=65_537)  # two chunks wider than a workspace and one narrower
SMALL = SimConfig(100_000, 31, chunk_size=4096)  # groups of 16, 8 and a last chunk of 1696
# the runner's seeding, recorded when every generator was built by SeedSequence
# itself: more chunks than one block of state words, and a seed of two 32-bit words
MANY = SimConfig(20_000, 37, chunk_size=16)  # 1250 chunks, in five blocks
BIG_SEED = SimConfig(100_000, 2**40 + 3)  # two chunks


def hexed(obj):
    """Every field of a result dataclass, floats as float.hex."""
    if dataclasses.is_dataclass(obj):
        return {f.name: hexed(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, list):
        return [hexed(a) for a in obj]
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
    "one_chunk": lambda: simulate(NOISY, solve_closed_form(NOISY), ONE_CHUNK).stats,
    "one_chunk_quiet": lambda: simulate(QUIET, solve_closed_form(QUIET), SimConfig(50_000, 8)).stats,
    "three_chunks": lambda: simulate(NOISY, solve_closed_form(NOISY), THREE_CHUNKS).stats,
    "paths": lambda: [
        simulate(NOISY, solve_closed_form(NOISY), THREE_CHUNKS).path(0),
        simulate(NOISY, solve_closed_form(NOISY), THREE_CHUNKS).path(100_000),
        simulate(QUIET, solve_closed_form(QUIET), SimConfig(50_000, 8)).path(49_999),
    ],
    **{
        f"batched_tau{tau}": lambda tau=tau: simulate_batched(
            BatchParams(BASE, tau), batched_equilibrium(BatchParams(BASE, tau)), SimConfig(70_000, 13)
        )
        for tau in TAUS
    },
    "narrow": lambda: simulate(NOISY, solve_closed_form(NOISY), NARROW).stats,
    "odd_quiet": lambda: simulate(QUIET, solve_closed_form(QUIET), ODD).stats,
    "pairs": lambda: simulate(NOISY, solve_closed_form(NOISY), PAIRS).stats,
    "wide": lambda: simulate(NOISY, solve_closed_form(NOISY), WIDE).stats,
    **{
        f"batched_small_tau{tau}": lambda tau=tau: simulate_batched(
            BatchParams(BASE, tau), batched_equilibrium(BatchParams(BASE, tau)), SMALL
        )
        for tau in (1, 5)
    },
    "best_small": lambda: verify_best_response(
        NOISY, solve_closed_form(NOISY), v=6.5, grid_halfwidth=0.5, n_grid=5, cfg=SMALL
    ),
    "many_chunks": lambda: simulate(NOISY, solve_closed_form(NOISY), MANY).stats,
    "big_seed": lambda: simulate(NOISY, solve_closed_form(NOISY), BIG_SEED).stats,
    "paths_grouped": lambda: [
        simulate(NOISY, solve_closed_form(NOISY), NARROW).path(150_499),
        simulate(QUIET, solve_closed_form(QUIET), ODD).path(64_123),
        simulate(NOISY, solve_closed_form(NOISY), WIDE).path(65_537),
    ],
}

PINNED = {
    "noisy": {
        "pnl_informed": {"n": 200000, "mean": "0x1.7b5d9ebcf7e49p+0", "m2": "0x1.43e32b07bffa9p+20"},
        "pnl_noise": {"n": 200000, "mean": "-0x1.53e7809162ec9p-2", "m2": "0x1.aa8ab2d2b7494p+17"},
        "pnl_maker": {"n": 200000, "mean": "-0x1.2663be989f296p+0", "m2": "0x1.49d5ff4c48e47p+20"},
        "signal_value": {
            "n": 200000,
            "mean_x": "-0x1.cae9330bb6a39p-8",
            "mean_y": "-0x1.351fa351f78cfp-7",
            "m2_x": "0x1.adf5c28126243p+19",
            "m2_y": "0x1.89aab3be7c514p+19",
            "c_xy": "0x1.23d0bd759cc25p+19",
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
        "pnl_maker": {"n": 200000, "mean": "-0x1.609411b0df172p-8", "m2": "0x1.aaa3cc4c0b109p+17"},
        "signal_value": {
            "n": 200000,
            "mean_x": "-0x1.fa4ee09c49b7dp-9",
            "mean_y": "-0x1.91dc5450f5041p-8",
            "m2_x": "0x1.f613cf59f5514p+17",
            "m2_y": "0x1.4ca600d800169p+18",
            "c_xy": "0x1.9a08ee6667a12p+17",
        },
        "price_value": {
            "n": 200000,
            "mean_x": "0x1.fe6e23abaf0b0p+0",
            "mean_y": "0x1.ff324ff4c0821p+0",
            "m2_x": "0x1.4ca600d800169p+18",
            "m2_y": "0x1.4b7313e262f27p+17",
            "c_xy": "0x1.4d2741b33432fp+17",
        },
    },
    "batched": {
        "mean_pi_I": "0x1.024ad03ee7509p+0",
        "mean_pi_N": "-0x1.fd5594ff2bac6p-1",
        "mean_pi_M": "-0x1.d002dfa8bd369p-7",
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
    "one_chunk": {
        "pnl_informed": {"n": 50000, "mean": "0x1.7a9f06b61dd99p+0", "m2": "0x1.3e9aa14ca9772p+18"},
        "pnl_noise": {"n": 50000, "mean": "-0x1.55ab3c23f538ap-2", "m2": "0x1.ada534783a21ap+15"},
        "pnl_maker": {"n": 50000, "mean": "-0x1.253437ad208b7p+0", "m2": "0x1.439fcd28ed785p+18"},
        "signal_value": {
            "n": 50000,
            "mean_x": "-0x1.8000b0a8376fbp-7",
            "mean_y": "-0x1.665d4c5eefe18p-7",
            "m2_x": "0x1.a4b1288667650p+17",
            "m2_y": "0x1.840ca61d8c74cp+17",
            "c_xy": "0x1.1c167803530b4p+17",
        },
        "price_value": {
            "n": 50000,
            "mean_x": "0x1.3f4cd159d0881p+2",
            "mean_y": "0x1.3f7df5d4d0d15p+2",
            "m2_x": "0x1.840ca61d8c74cp+17",
            "m2_y": "0x1.81f4bb7da7aa2p+16",
            "c_xy": "0x1.80d128f395d81p+16",
        },
    },
    "one_chunk_quiet": {
        "pnl_informed": {"n": 50000, "mean": "0x1.0a3dabecea704p-1", "m2": "0x1.420207083eb4bp+15"},
        "pnl_noise": {"n": 50000, "mean": "-0x1.0bb2742b3a2c5p-1", "m2": "0x1.3f7149b333006p+15"},
        "pnl_maker": {"n": 50000, "mean": "0x1.74c83e4fbc19ap-9", "m2": "0x1.a66294a2ec8e2p+15"},
        "signal_value": {
            "n": 50000,
            "mean_x": "0x1.c3194c5360fb0p-9",
            "mean_y": "0x1.19b171e6e0177p-10",
            "m2_x": "0x1.eec769a908de8p+15",
            "m2_y": "0x1.47e7c1c49aba2p+16",
            "c_xy": "0x1.90e63484ed512p+15",
        },
        "price_value": {
            "n": 50000,
            "mean_x": "0x1.0023362e3cdc0p+1",
            "mean_y": "0x1.005ba12380efbp+1",
            "m2_x": "0x1.47e7c1c49aba2p+16",
            "m2_y": "0x1.46a1a4c096daep+15",
            "c_xy": "0x1.45bb0aac00d1ep+15",
        },
    },
    "three_chunks": {
        "pnl_informed": {"n": 150000, "mean": "0x1.79d3948bf9254p+0", "m2": "0x1.dc41a8c14737fp+19"},
        "pnl_noise": {"n": 150000, "mean": "-0x1.4f8c6d2674c8fp-2", "m2": "0x1.3b63e591de084p+17"},
        "pnl_maker": {"n": 150000, "mean": "-0x1.25f079425bf2fp+0", "m2": "0x1.e43a84dddd051p+19"},
        "signal_value": {
            "n": 150000,
            "mean_x": "0x1.fd0faceb518eep-10",
            "mean_y": "-0x1.90a31a0acb40ep-11",
            "m2_x": "0x1.3eeba21ea2f5bp+19",
            "m2_y": "0x1.252a9d9c41967p+19",
            "c_xy": "0x1.b1528c08bb3e5p+18",
        },
        "price_value": {
            "n": 150000,
            "mean_x": "0x1.3ff37ae72fa9ap+2",
            "mean_y": "0x1.40158c79f1d15p+2",
            "m2_x": "0x1.252a9d9c41967p+19",
            "m2_y": "0x1.24966a755aca0p+18",
            "c_xy": "0x1.257ba58f9bcaep+18",
        },
    },
    "paths": [
        {
            "v": "0x1.b279474feec56p+1",
            "u": "0x1.1b88c39882459p-1",
            "eps": "-0x1.2fe4a10f7dd00p+1",
            "x": "-0x1.2f74b48a70ffcp+0",
            "y": "-0x1.4360a57c5fb9fp-1",
            "y_tilde": "-0x1.80bcca6e95be8p+1",
            "p": "0x1.7b6c43c79da0ep+1",
        },
        {
            "v": "0x1.a9c594bd42038p+2",
            "u": "-0x1.cc8fe28816967p-2",
            "eps": "-0x1.787c5571ad3aap+0",
            "x": "0x1.3857237570f43p+0",
            "y": "0x1.8a6655a6d69d2p-1",
            "y_tilde": "-0x1.6692553c83d82p-1",
            "p": "0x1.21a4a10d0e3afp+2",
        },
        {
            "v": "0x1.89f160daf771ap+1",
            "u": "-0x1.0e1e9c5248325p+1",
            "eps": "0x0.0p+0",
            "x": "0x1.538d3d2eafdc9p-1",
            "y": "-0x1.72769a0d38766p+0",
            "y_tilde": "-0x1.72769a0d38766p+0",
            "p": "0x1.a5ff45aa843fap-1",
        },
    ],
    "batched_tau1": {
        "mean_pi_I": "0x1.2c8f5c96179f4p-1",
        "mean_pi_N": "-0x1.2c7f0fc0c8e3fp-1",
        "mean_pi_M": "-0x1.04cd54ebb4f08p-13",
        "se_pi_I": "0x1.f3cf824351f1fp-9",
        "se_pi_N": "0x1.fb082423948a1p-9",
        "se_pi_M": "0x1.235c79a6335c9p-8",
        "n": 70000,
    },
    "batched_tau7": {
        "mean_pi_I": "0x1.8e9a2e4f2dcf9p+0",
        "mean_pi_N": "-0x1.8f105e9644a03p+0",
        "mean_pi_M": "0x1.d8c11c5b42670p-10",
        "se_pi_I": "0x1.4f7cf25b5ef84p-7",
        "se_pi_N": "0x1.4f710904f1945p-7",
        "se_pi_M": "0x1.8333d5297550fp-7",
        "n": 70000,
    },
    "batched_tau8": {
        "mean_pi_I": "0x1.aa330c88b2264p+0",
        "mean_pi_N": "-0x1.acddc4c738ed5p+0",
        "mean_pi_M": "0x1.555c1f436390cp-7",
        "se_pi_I": "0x1.64ce4e890ebb1p-7",
        "se_pi_N": "0x1.65990ebdc62a7p-7",
        "se_pi_M": "0x1.9ae3354b8699ap-7",
        "n": 70000,
    },
    "batched_tau9": {
        "mean_pi_I": "0x1.c153597fd1ba2p+0",
        "mean_pi_N": "-0x1.c18b4fb1c53a1p+0",
        "mean_pi_M": "0x1.bfb18f9bff424p-11",
        "se_pi_I": "0x1.78b88d3a25d59p-7",
        "se_pi_N": "0x1.79a09c773a702p-7",
        "se_pi_M": "0x1.b3d2498ece605p-7",
        "n": 70000,
    },
    "batched_tau16": {
        "mean_pi_I": "0x1.2d3a330d65285p+1",
        "mean_pi_N": "-0x1.29fdbd9a78ecap+1",
        "mean_pi_M": "-0x1.9e3ab9761dd8fp-6",
        "se_pi_I": "0x1.f5c5b7251c0a8p-7",
        "se_pi_N": "0x1.f285a3db41a03p-7",
        "se_pi_M": "0x1.213316ee08de2p-6",
        "n": 70000,
    },
    "batched_tau17": {
        "mean_pi_I": "0x1.358043bcfe521p+1",
        "mean_pi_N": "-0x1.32aa947a0eb9bp+1",
        "mean_pi_M": "-0x1.6ad7a177cc2aap-6",
        "se_pi_I": "0x1.02d52b6822434p-6",
        "se_pi_N": "0x1.01d94b797e299p-6",
        "se_pi_M": "0x1.296caa4bccad3p-6",
        "n": 70000,
    },
    "narrow": {
        "pnl_informed": {"n": 150500, "mean": "0x1.79a6a0081b06bp+0", "m2": "0x1.e07b9ee5aee0bp+19"},
        "pnl_noise": {"n": 150500, "mean": "-0x1.50923a7056281p-2", "m2": "0x1.3fdb8de0160fbp+17"},
        "pnl_maker": {"n": 150500, "mean": "-0x1.2582116c057c8p+0", "m2": "0x1.e90df5582ae0bp+19"},
        "signal_value": {
            "n": 150500,
            "mean_x": "0x1.994a2187f65f5p-11",
            "mean_y": "0x1.eab9818ff82e3p-9",
            "m2_x": "0x1.3fbc41cdbc012p+19",
            "m2_y": "0x1.252953b466cd2p+19",
            "c_xy": "0x1.b011f83bc12f7p+18",
        },
        "price_value": {
            "n": 150500,
            "mean_x": "0x1.403d573031ff0p+2",
            "mean_y": "0x1.4008a9a5a36b3p+2",
            "m2_x": "0x1.252953b466cd2p+19",
            "m2_y": "0x1.2555d055685e8p+18",
            "c_xy": "0x1.24a2863b92bb6p+18",
        },
    },
    "odd_quiet": {
        "pnl_informed": {"n": 100000, "mean": "0x1.07d24f3305aedp-1", "m2": "0x1.35f0f820f4330p+16"},
        "pnl_noise": {"n": 100000, "mean": "-0x1.0b82012889dabp-1", "m2": "0x1.423bc2ce66548p+16"},
        "pnl_maker": {"n": 100000, "mean": "0x1.d7d8fac215f0dp-8", "m2": "0x1.a56ca03cb0c3ep+16"},
        "signal_value": {
            "n": 100000,
            "mean_x": "0x1.6a2c02edca3fcp-10",
            "mean_y": "-0x1.3b42ed52505f7p-8",
            "m2_x": "0x1.efd0dcf094cb8p+16",
            "m2_y": "0x1.460d0ffc829d3p+17",
            "c_xy": "0x1.900a89e557e91p+16",
        },
        "price_value": {
            "n": 100000,
            "mean_x": "0x1.fec4bd12adafap+0",
            "mean_y": "0x1.0024c8784c269p+1",
            "m2_x": "0x1.460d0ffc829d3p+17",
            "m2_y": "0x1.4750e1dad23a5p+16",
            "c_xy": "0x1.4508900a576d8p+16",
        },
    },
    "pairs": {
        "pnl_informed": {"n": 150000, "mean": "0x1.77b3096121fe2p+0", "m2": "0x1.dc874b92e8be2p+19"},
        "pnl_noise": {"n": 150000, "mean": "-0x1.546b3a628747bp-2", "m2": "0x1.3dbf6f1564017p+17"},
        "pnl_maker": {"n": 150000, "mean": "-0x1.22983ac8802c3p+0", "m2": "0x1.e56cafa5718a4p+19"},
        "signal_value": {
            "n": 150000,
            "mean_x": "0x1.17321cb1e3f7fp-10",
            "mean_y": "-0x1.5867ffb36dceep-8",
            "m2_x": "0x1.3f337a6ab5a03p+19",
            "m2_y": "0x1.23cc9ba8c1877p+19",
            "c_xy": "0x1.afb9d19258a79p+18",
        },
        "price_value": {
            "n": 150000,
            "mean_x": "0x1.3fa9e60013249p+2",
            "mean_y": "0x1.400bd1860826fp+2",
            "m2_x": "0x1.23cc9ba8c1877p+19",
            "m2_y": "0x1.24d85420231b4p+18",
            "c_xy": "0x1.2466d229297f8p+18",
        },
    },
    "wide": {
        "pnl_informed": {"n": 140000, "mean": "0x1.7924d1c2bc8acp+0", "m2": "0x1.c1bbfd4c098d8p+19"},
        "pnl_noise": {"n": 140000, "mean": "-0x1.55f67fefc4ae4p-2", "m2": "0x1.25bca333ca68ep+17"},
        "pnl_maker": {"n": 140000, "mean": "-0x1.23a731c6cb5f3p+0", "m2": "0x1.c73998c013c3ap+19"},
        "signal_value": {
            "n": 140000,
            "mean_x": "-0x1.70910b022525cp-9",
            "mean_y": "0x1.231bb934c3bcfp-12",
            "m2_x": "0x1.2a8dffb0d53d0p+19",
            "m2_y": "0x1.114a1cee3d158p+19",
            "c_xy": "0x1.942e690e12729p+18",
        },
        "price_value": {
            "n": 140000,
            "mean_x": "0x1.40048c6ee4d31p+2",
            "mean_y": "0x1.3fe0cc01c887dp+2",
            "m2_x": "0x1.114a1cee3d158p+19",
            "m2_y": "0x1.11e743d38d9cfp+18",
            "c_xy": "0x1.11bf012fec11ep+18",
        },
    },
    "batched_small_tau1": {
        "mean_pi_I": "0x1.2cd8a0a33a079p-1",
        "mean_pi_N": "-0x1.2c906f3c58c09p-1",
        "mean_pi_M": "-0x1.20c59b851c4d2p-11",
        "se_pi_I": "0x1.a4b6078855943p-9",
        "se_pi_N": "0x1.a313424727771p-9",
        "se_pi_M": "0x1.e2fb14a8b73a4p-9",
        "n": 100000,
    },
    "batched_small_tau5": {
        "mean_pi_I": "0x1.4f8a62b9895aep+0",
        "mean_pi_N": "-0x1.511aafad36759p+0",
        "mean_pi_M": "0x1.904cf3ad1abe6p-8",
        "se_pi_I": "0x1.d5b2835e70bc2p-8",
        "se_pi_N": "0x1.d5447c60daf14p-8",
        "se_pi_M": "0x1.0ef7043d62adep-7",
        "n": 100000,
    },
    "best_small": {
        "grid": [
            "0x1.1b7c0eed1ea38p-1",
            "0x1.a93a1663adf54p-1",
            "0x1.1b7c0eed1ea38p+0",
            "0x1.625b12a8664c6p+0",
            "0x1.a93a1663adf54p+0",
        ],
        "estimates": [
            "0x1.3e4c165f29ffdp-1",
            "0x1.8db73d5c0e61bp-1",
            "0x1.a7fb218c7d04fp-1",
            "0x1.8d17c2f075e97p-1",
            "0x1.3d0d2187f90f8p-1",
        ],
        "ses": [
            "0x1.cb14ad365dd38p-10",
            "0x1.584f81e8c65eap-9",
            "0x1.cb14ad365dd38p-9",
            "0x1.1eecec41faa44p-8",
            "0x1.584f81e8c65eap-8",
        ],
        "analytic": [
            "0x1.3eeb90cac277fp-1",
            "0x1.8ea674fd7315fp-1",
            "0x1.a93a1663adf54p-1",
            "0x1.8ea674fd7315dp-1",
            "0x1.3eeb90cac277fp-1",
        ],
        "argmax_x": "0x1.1b7c0eed1ea38p+0",
        "x_star": "0x1.1b7c0eed1ea38p+0",
        "grid_step": "0x1.1b7c0eed1ea38p-2",
        "n_paths": 100000,
    },
    "many_chunks": {
        "pnl_informed": {"n": 20000, "mean": "0x1.81d101d64de24p+0", "m2": "0x1.034c01c79b2a3p+17"},
        "pnl_noise": {"n": 20000, "mean": "-0x1.582821ed0c6d2p-2", "m2": "0x1.581c9420ecb9ap+14"},
        "pnl_maker": {"n": 20000, "mean": "-0x1.2bc6f95b0ac7fp+0", "m2": "0x1.07e8c4b0f00cdp+17"},
        "signal_value": {
            "n": 20000,
            "mean_x": "0x1.bc32595ae13a9p-10",
            "mean_y": "-0x1.f5d40c830b4bcp-8",
            "m2_x": "0x1.55fa278432cbfp+16",
            "m2_y": "0x1.3df44211522ebp+16",
            "c_xy": "0x1.d3f49da754a2dp+15",
        },
        "price_value": {
            "n": 20000,
            "mean_x": "0x1.3f828afcdf3d3p+2",
            "mean_y": "0x1.4012cd9134b56p+2",
            "m2_x": "0x1.3df44211522ebp+16",
            "m2_y": "0x1.39bd92a38ee55p+15",
            "c_xy": "0x1.3cf08198e1ed3p+15",
        },
    },
    "big_seed": {
        "pnl_informed": {"n": 100000, "mean": "0x1.7b64d3f7800ffp+0", "m2": "0x1.3eb75af12f8b4p+19"},
        "pnl_noise": {"n": 100000, "mean": "-0x1.4c0ae8adb688cp-2", "m2": "0x1.a774074b07839p+16"},
        "pnl_maker": {"n": 100000, "mean": "-0x1.286219cc126dcp+0", "m2": "0x1.4654d711f11cep+19"},
        "signal_value": {
            "n": 100000,
            "mean_x": "0x1.9b0fdc299f00ap-9",
            "mean_y": "0x1.0ba2dbea7a0d1p-8",
            "m2_x": "0x1.acf18252e44b4p+18",
            "m2_y": "0x1.88e5c5990f1d2p+18",
            "c_xy": "0x1.22a72383a2892p+18",
        },
        "price_value": {
            "n": 100000,
            "mean_x": "0x1.4042e8b6fa9e8p+2",
            "mean_y": "0x1.4022cd0048a80p+2",
            "m2_x": "0x1.88e5c5990f1d2p+18",
            "m2_y": "0x1.8986ab3b9b6d0p+17",
            "c_xy": "0x1.89b5bf1fe63d5p+17",
        },
    },
    "paths_grouped": [
        {
            "v": "0x1.e5378fa6fc24ap+2",
            "u": "-0x1.210990f4151c6p-1",
            "eps": "-0x1.71909c3b19800p-1",
            "x": "0x1.e7e14b98a9d4dp+0",
            "y": "0x1.575c831e9f46ap+0",
            "y_tilde": "0x1.3d286a02250d4p-1",
            "p": "0x1.5ad9ce21fd2e6p+2",
        },
        {
            "v": "0x1.cd6a4a2cc5278p+0",
            "u": "-0x1.feae562bd01bdp-1",
            "eps": "0x0.0p+0",
            "x": "-0x1.f210d6e4b98eap-4",
            "y": "-0x1.1e78388433a6dp+0",
            "y_tilde": "-0x1.1e78388433a6dp+0",
            "p": "0x1.173e521496088p+0",
        },
        {
            "v": "0x1.22fac74876ccep+2",
            "u": "0x1.074ef111c2e4bp+0",
            "eps": "-0x1.a6593bb1e5c9ep+0",
            "x": "-0x1.56c8e9d0551c6p-2",
            "y": "0x1.63396d3b5b3b3p-1",
            "y_tilde": "-0x1.e9790a2870589p-1",
            "p": "0x1.168f96fceda8dp+2",
        },
    ],
}


@pytest.mark.parametrize("threads", ["1", "2", "6"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_bits_match_the_record(run, threads, monkeypatch):
    monkeypatch.setenv("PRIVACY_LAB_THREADS", threads)
    assert hexed(RUNS[run]()) == PINNED[run]
