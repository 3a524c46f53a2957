"""Seeded results pinned bit for bit.

Each expected value is the ``float.hex`` of what the library computed when
the value was recorded, so any change of rounding on these paths fails
here: the ``pac-report`` JSON on the default moons file, one K=10
adversarial ascent, short seeded runs of all nine trainers on full batches
and on shuffled mini-batches, short seeded partial and open-set SymmNets
runs and the ``theory-check`` report at CLI defaults.  The ``pac-report``
file must also have the same bytes at one and at two BLAS threads.
Regenerate the constants only for a deliberate numeric change, and record
that change in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import mcsda
from mcsda.divergence import mcsd_divergence_adversarial
from mcsda.harness.cli import main
from mcsda.harness.config import ExperimentConfig
from mcsda.harness.theory import run_theory_checks
from mcsda.harness.trainers import run_experiment
from mcsda.neural import Schedules
from mcsda.synthdata import gen_gauss_blobs, gen_rotated_moons, make_openset, make_partial

PAC_TERMS = (
    "src_margin_err",
    "divergence",
    "rademacher_src",
    "rademacher_tgt",
    "rademacher_src_stderr",
    "rademacher_tgt_stderr",
    "rad_src_multiplier",
    "rad_tgt_multiplier",
    "slack_src",
    "slack_tgt",
    "lambda",
    "lhs_target_err",
    "rhs_total",
)
RUN_METHODS = (
    "source_only",
    "mcdal_l1",
    "mcdal_kl",
    "mcdal_ce",
    "mcdal_mdd_variant",
    "mcdal_dann",
    "symmnets_v2",
    "symmnets_v2_no_Lt",
    "symmnets_v2_no_adv",
)
RUN_MODES = ("partial", "openset")


def pac_report_values(tmp_path) -> dict:
    """Bound terms, per-candidate terms and file digest of ``pac-report`` at
    CLI defaults on the default ``gen-data`` moons file (K=2)."""
    data, out = tmp_path / "moons.csv", tmp_path / "pac.json"
    assert main(["gen-data", "--out", str(data)]) == 0
    assert main(["pac-report", "--data", str(data), "--out", str(out)]) == 0
    text = out.read_bytes()
    rep = json.loads(text)
    values = {key: float(rep[key]).hex() for key in PAC_TERMS}
    values["per_candidate"] = [
        [float(c[key]).hex() for key in ("src_margin_err", "lhs_target_err", "rhs_total")]
        for c in rep["per_candidate"]
    ]
    values["sha256"] = hashlib.sha256(text).hexdigest()
    return values


def ascent_values() -> dict:
    """Value and smoothed trajectory of a short ascent on a small K=10 draw;
    rho = 0.7, so that x / rho rounds."""
    pair = gen_gauss_blobs(10, 8, (1.0, 0.5), seed=0)
    res = mcsd_divergence_adversarial(
        pair.source.points, pair.target.points, k=10, rho=0.7, steps=25, seed=0
    )
    return {"value": res.value.hex(), "trajectory": [v.hex() for v in res.trajectory]}


def run_values(method: str, full_batch_limit: int = 512) -> dict:
    """Final accuracies, last-epoch losses, divergence proxy and trained
    parameters of a short seeded run on a small moons pair (rho = 0.7, as
    above).  Its 96-point domains take one full batch per epoch at the
    default ``full_batch_limit``; at 32 they take three shuffled 32-point
    mini-batches per epoch, the path of longer runs on larger data."""
    pair = gen_rotated_moons(96, 96, 30.0, noise_sd=0.05, seed=0)
    cfg = ExperimentConfig(
        method=method,
        rho=0.7,
        epochs=3,
        batch_size=32,
        full_batch_limit=full_batch_limit,
        seed=0,
        schedules=Schedules(eta0=0.05),
    )
    return run_summary(run_experiment(pair, cfg))


def params_digest(model) -> str:
    """sha256 of the parameter block ``MlpScorer.save`` writes after its
    header line: every trained weight, bit for bit."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.ckpt"
        model.save(path)
        block = path.read_bytes().split(b"\n", 1)[1]
    return hashlib.sha256(block).hexdigest()


def run_summary(res) -> dict:
    last = res.metrics[-1]
    return {
        "source_acc": res.final_source_acc.hex(),
        "target_acc": res.final_target_acc.hex(),
        "losses": {k: v.hex() for k, v in sorted(last.losses.items())},
        "proxy": None if last.divergence_proxy is None else last.divergence_proxy.hex(),
        "params": params_digest(res.model),
    }


def mode_run_values(mode: str) -> dict:
    """A short seeded ``symmnets_v2`` run on a partial pair (shuffled
    mini-batches, class weights re-estimated every epoch) or an open-set
    pair (super-class-oversampled source batches): the ``run_values``
    summary plus the final class weights or open-set accuracies and every
    epoch's target accuracy."""
    if mode == "partial":
        pair = make_partial(gen_gauss_blobs(4, 40, (0.6, 0.3), seed=3, std=0.5), [1, 2])
        extra = {"full_batch_limit": 32}
    else:
        base = gen_gauss_blobs(6, 30, (0.6, 0.3), seed=4, std=0.8)
        pair = make_openset(base, [1, 2, 3], [4], [5, 6])
        extra = {"nu": 2.0}
    cfg = ExperimentConfig(
        method="symmnets_v2",
        rho=0.7,
        epochs=3,
        batch_size=32,
        seed=0,
        schedules=Schedules(eta0=0.05),
        **extra,
    )
    res = run_experiment(pair, cfg)
    values = run_summary(res)
    values["target_accs"] = [r.target_acc.hex() for r in res.metrics]
    if mode == "partial":
        values["omega"] = [float(w).hex() for w in res.omega]
    else:
        values["open_set"] = [res.os_all.hex(), res.os_shared.hex(), res.unknown_acc.hex()]
    return values


def theory_values() -> dict:
    """``passed`` and details of every check of ``run_theory_checks(seed=0)``
    at CLI defaults (2000 trials, 20 universes), floats as ``float.hex``.
    ``single_vector_gap`` is left out: ``tests/test_theory.py`` holds it to
    its tolerance."""
    report = run_theory_checks(seed=0, trials=2000, n_universes=20).to_json()

    def pinned(v):
        return float(v).hex() if isinstance(v, float) else v

    return {
        c["name"]: [
            c["passed"],
            {k: pinned(v) for k, v in c["details"].items() if k != "single_vector_gap"},
        ]
        for c in report["checks"]
    }


EXPECTED_PAC = {
    "src_margin_err": "0x1.a7815a5299d2ap-1",
    "divergence": "0x1.2918d8b31fa94p-2",
    "rademacher_src": "0x1.f420a2e969e26p-5",
    "rademacher_tgt": "0x1.11a1773878680p-4",
    "rademacher_src_stderr": "0x1.581160c0f5846p-11",
    "rademacher_tgt_stderr": "0x1.98fbeb54b3310p-11",
    "rad_src_multiplier": "0x1.0000000000000p+4",
    "rad_tgt_multiplier": "0x1.0000000000000p+3",
    "slack_src": "0x1.7346ebf364399p-1",
    "slack_tgt": "0x1.7346ebf364399p-2",
    "lambda": "0x1.bee60d914846ep+0",
    "lhs_target_err": "0x1.ae147ae147ae1p-2",
    "rhs_total": "0x1.5d90cbbbb65abp+2",
    "per_candidate": [
        ["0x1.91fcee6626b98p+0", "0x1.0bf258bf258bep-2", "0x1.8d1fdc0aeccecp+2"],
        ["0x1.471df38c8391cp+0", "0x1.258bf258bf259p-1", "0x1.7a681d548404dp+2"],
        ["0x1.ac945360c2110p-1", "0x1.5555555555556p-3", "0x1.5e332add7b628p+2"],
        ["0x1.e61db86c3787ep+0", "0x1.a147ae147ae16p-1", "0x1.a2280e8c71026p+2"],
        ["0x1.9bc6040349ce7p+0", "0x1.53a06d3a06d3ap-1", "0x1.8f92217235940p+2"],
        ["0x1.7c71b439d726cp+0", "0x1.8888888888886p-2", "0x1.87bd0d7fd8ea1p+2"],
        ["0x1.4c71b073785d8p+0", "0x1.3f258bf258bf2p-2", "0x1.7bbd0c8e4137cp+2"],
        ["0x1.9d6516650aaa1p+0", "0x1.2fc962fc962fep-1", "0x1.8ff9e60aa5caep+2"],
        ["0x1.22e1cab2eedd8p+0", "0x1.051eb851eb852p-1", "0x1.7159131e1ed7cp+2"],
        ["0x1.e57d04b298e59p-1", "0x1.fc962fc962fcap-3", "0x1.65504107b63d1p+2"],
        ["0x1.efb4674395c88p-1", "0x1.206d3a06d3a06p-2", "0x1.66972d59d5d97p+2"],
        ["0x1.a7815a5299d2ap-1", "0x1.ae147ae147ae1p-2", "0x1.5d90cbbbb65abp+2"],
    ],
    "sha256": "9fcf014f7ba46847be01c24ea43b9a6ab6cdbd1a34fdac3aeb52be77483866fc",
}

EXPECTED_ASCENT = {
    "value": "0x1.8326b5199e088p-1",
    "trajectory": [
        "0x1.46c54ae139e20p-3",
        "0x1.4da2709366de0p-2",
        "0x1.bbbe1d0785ce0p-2",
        "0x1.03c7da1b6cdf0p-1",
        "0x1.1cf2dca8a0080p-1",
        "0x1.22fab323c1cb0p-1",
        "0x1.3ab17793e13a8p-1",
        "0x1.3fe8bc6ed7858p-1",
        "0x1.4968e740acd60p-1",
        "0x1.4c827e03d3060p-1",
        "0x1.520524c224b50p-1",
        "0x1.533bfc2de9930p-1",
        "0x1.5ab0d01ff7080p-1",
        "0x1.61b19bb695d30p-1",
        "0x1.66a1357264cd0p-1",
        "0x1.6c284d2d48c80p-1",
        "0x1.6e0daf2a74e90p-1",
        "0x1.73aa858793a30p-1",
        "0x1.76680166f0a68p-1",
        "0x1.79b92733782c0p-1",
        "0x1.7a6d8a9e5e3b0p-1",
        "0x1.7d370cca56590p-1",
        "0x1.7e62bc3e80940p-1",
        "0x1.81134fc04b250p-1",
        "0x1.81cc0d36943e0p-1",
        "0x1.83229fcece428p-1",
    ],
}

EXPECTED_RUNS = {
    "source_only": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.c555555555555p-1",
        "losses": {
            "task": "0x1.5053e660d1c64p-1",
        },
        "proxy": None,
        "params": "732a973b7780861a197385ea2723dc30c836aa06d974e16e0ac33d23044143dd",
    },
    "mcdal_l1": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.c000000000000p-1",
        "losses": {
            "aux_task": "0x1.41de63909f0e4p+0",
            "disagreement": "-0x1.828141bf2fa00p-17",
            "task": "0x1.4f5e6cc30d373p-1",
        },
        "proxy": "0x1.e1a2d2f825e00p-11",
        "params": "becb7853e9b3cba48bb3752612c41edf5d3aac7ea335181e1663c5fe3aa23259",
    },
    "mcdal_kl": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.c000000000000p-1",
        "losses": {
            "aux_task": "0x1.41dcda3896697p+0",
            "disagreement": "0x1.ea1fab0773260p-15",
            "task": "0x1.4f5da12da047ep-1",
        },
        "proxy": "0x1.335d7f0756000p-12",
        "params": "8f219f3745fa4a067a133412f79d08ce22f9f8270ad3825ad5c8918325bee16d",
    },
    "mcdal_ce": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.c000000000000p-1",
        "losses": {
            "aux_task": "0x1.41d3530be4e9ap+0",
            "disagreement": "-0x1.68cac527b47f3p-10",
            "task": "0x1.4f5dd669aa11bp-1",
        },
        "proxy": "0x1.376834f78ec00p-13",
        "params": "6b372f5db5275e00588a10f3e7e849d69e3dbbdc7e2dfd3254e8f7746104096e",
    },
    "mcdal_mdd_variant": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.c000000000000p-1",
        "losses": {
            "aux_task": "0x1.42da59c92331ep+0",
            "disagreement": "0x1.64380e629226ep+0",
            "task": "0x1.4f6bd22aa6825p-1",
        },
        "proxy": "-0x1.299408af423a8p-8",
        "params": "4a37282a45d4d5b71a9d6019b4fa55d335d2ae7a9d8a582ea8a79bd934d28aa0",
    },
    "mcdal_dann": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.c555555555555p-1",
        "losses": {
            "aux_task": "0x0.0p+0",
            "disagreement": "0x1.6303e9badc0bcp+0",
            "task": "0x1.5056a1056b317p-1",
        },
        "proxy": None,
        "params": "83970dc70d4af6ac566ed494c12c80fe146de3d52f523ef58bf529d85416925b",
    },
    "symmnets_v2": {
        "source_acc": "0x1.8aaaaaaaaaaabp-1",
        "target_acc": "0x1.c000000000000p-1",
        "losses": {
            "bound_lhs": "0x1.b97e8d3b1a9a5p-5",
            "bound_rhs": "0x1.d5bbffbc811aep+1",
            "confuse_src": "0x1.56d9962d23d01p+0",
            "confuse_tgt": "0x1.63205e32e1463p-1",
            "discrim": "0x1.03c40bbc1ce06p+1",
            "task_s": "0x1.4b62c6eca390bp-1",
            "task_t": "0x1.495e26b275498p-1",
        },
        "proxy": "0x1.367cdeca1cc28p-8",
        "params": "29736f1c8d7277c2f66312068cf89722e71dca008e2d4ac7b3f5da232cdde9ec",
    },
    "symmnets_v2_no_Lt": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "bound_lhs": "0x1.c98ae0c597a58p-4",
            "bound_rhs": "0x1.d7e35a3a28482p+1",
            "confuse_src": "0x1.595c0ea9ae9d8p+0",
            "confuse_tgt": "0x1.6389537307485p-1",
            "discrim": "0x1.03bd065ee69c6p+1",
            "task_s": "0x1.4b6b72d0c9c03p-1",
        },
        "proxy": "0x1.1e7e360b4b400p-10",
        "params": "986b46c2ee13608846e24b80b849c35c1e632d87a6fde67a3661748897865623",
    },
    "symmnets_v2_no_adv": {
        "source_acc": "0x1.8aaaaaaaaaaabp-1",
        "target_acc": "0x1.c000000000000p-1",
        "losses": {
            "bound_lhs": "0x1.bb73b06102c9dp-5",
            "bound_rhs": "0x1.ddd491ba05a78p+1",
            "confuse_src": "0x1.59784722ccf78p+0",
            "task_s": "0x1.54c032ebd7341p-1",
            "task_t": "0x1.49528d5d53c8dp-1",
        },
        "proxy": "0x1.1c47de059eaf0p-8",
        "params": "a50c055b68c3acca6a588a7f403a984e316e752f025943ceadc568e40b3fe4d8",
    },
}


EXPECTED_MINIBATCH_RUNS = {
    "source_only": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "task": "0x1.f74473ef0dba5p-2",
        },
        "proxy": None,
        "params": "84874cfa6d39a7f8fed6f9c58c734a36720cd241c7c44647049e1d4ca824fbc4",
    },
    "mcdal_l1": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "aux_task": "0x1.99dc801f62560p-1",
            "disagreement": "-0x1.3603bfe2c0551p-9",
            "task": "0x1.a35aed4db4a9fp-2",
        },
        "proxy": "0x1.8ec6113be7a34p-7",
        "params": "e98026233bcb9091696ef20f55e66ccde77cf3c9df89a041e0f72b54dfb8e317",
    },
    "mcdal_kl": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "aux_task": "0x1.995f442afcf45p-1",
            "disagreement": "0x1.72326875367e3p-12",
            "task": "0x1.a31f42519d77bp-2",
        },
        "proxy": "0x1.316bc3e87e5b4p-8",
        "params": "00de81f5a8fb3b8778e55d5557b63e8ddb649f3b37d934d53629a982f8f3b584",
    },
    "mcdal_ce": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "aux_task": "0x1.9780948863f63p-1",
            "disagreement": "-0x1.77acf7b193a31p-5",
            "task": "0x1.a4f9c85bdd820p-2",
        },
        "proxy": "0x1.9cb49635a69e8p-9",
        "params": "587f12da6c7a93ff7270db1ffa5de9966ffbc35e50d5975e1d3d292a4ccbbec4",
    },
    "mcdal_mdd_variant": {
        "source_acc": "0x1.a000000000000p-1",
        "target_acc": "0x1.d000000000000p-1",
        "losses": {
            "aux_task": "0x1.9e79973ae545fp-1",
            "disagreement": "0x1.89c84923ec33bp+0",
            "task": "0x1.a46776dcf3d73p-2",
        },
        "proxy": "0x1.301064fd1d124p-4",
        "params": "92eb90395eab2a8b915298085e8ed10ff3ccab79bc0681f7c0e1bd6777ae800a",
    },
    "mcdal_dann": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "aux_task": "0x0.0p+0",
            "disagreement": "0x1.62cb6d6be8fe4p+0",
            "task": "0x1.f7178b1d7771dp-2",
        },
        "proxy": None,
        "params": "fb1b197cf48576594f9dfac4d318e29c87f7ac339c0a04d2541c44e88f65c205",
    },
    "symmnets_v2": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "bound_lhs": "0x1.c4a8e96dc8b49p-3",
            "bound_rhs": "0x1.ecf4a820c16bcp+0",
            "confuse_src": "0x1.262516aa7275cp+0",
            "confuse_tgt": "0x1.5662959b79368p-1",
            "discrim": "0x1.c9b2971a199c0p+0",
            "task_s": "0x1.ae93949132224p-2",
            "task_t": "0x1.f5a59fea8f0c8p-2",
        },
        "proxy": "0x1.1b02433797554p-5",
        "params": "e073157b553aa7eecdf713f3ef09abbf94ef05f0e216161b436e8e6f187b5169",
    },
    "symmnets_v2_no_Lt": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.caaaaaaaaaaabp-1",
        "losses": {
            "bound_lhs": "0x1.db908d424e1f3p-2",
            "bound_rhs": "0x1.4a1b87850c2acp+1",
            "confuse_src": "0x1.38aea641b1c63p+0",
            "confuse_tgt": "0x1.626fa780b985dp-1",
            "discrim": "0x1.cd43ab86da33dp+0",
            "task_s": "0x1.c0e5538ba4645p-2",
        },
        "proxy": "-0x1.d1af958ea3bd0p-4",
        "params": "790a482dd803e859e3f22af2d38df890ca86e26099249780c14f0cc9a1fb4216",
    },
    "symmnets_v2_no_adv": {
        "source_acc": "0x1.9aaaaaaaaaaabp-1",
        "target_acc": "0x1.d555555555555p-1",
        "losses": {
            "bound_lhs": "0x1.85686cfd9caf8p-5",
            "bound_rhs": "0x1.446ecf19e1c9ap+1",
            "confuse_src": "0x1.33e933b8fef39p+0",
            "task_s": "0x1.0727017567594p-1",
            "task_t": "0x1.012f634d39c00p-1",
        },
        "proxy": "0x1.cff592ca7fe80p-10",
        "params": "9e117c027049db1d14a5d87d20fc8336f6b78c097400bd525517b55795f03b8a",
    },
}


EXPECTED_MODE_RUNS = {
    "partial": {
        "source_acc": "0x1.0000000000000p+0",
        "target_acc": "0x1.0000000000000p+0",
        "losses": {
            "bound_lhs": "0x1.9008e91e0bf22p-6",
            "bound_rhs": "0x1.014360e91966ap+1",
            "confuse_src": "0x1.ec7d8f8bf7e98p-2",
            "confuse_tgt": "0x1.77033af9641fap-1",
            "discrim": "0x1.07e9acc2ee38cp+0",
            "task_s": "0x1.4f35245cb803ep-7",
            "task_t": "0x1.1e0817623178ep-6",
        },
        "proxy": "0x1.4153e97b70ddfp-6",
        "params": "7c460dfb6b22b48b0ae1a415d1ef3495d776fdb732e7f427c219a2df520a7761",
        "target_accs": ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"],
        "omega": [
            "0x1.f18df6f26de37p-1",
            "0x1.0000000000000p+0",
            "0x1.16c1b90e25bdfp-6",
            "0x1.4b846ca80e155p-5",
        ],
    },
    "openset": {
        "source_acc": "0x1.eeeeeeeeeeeefp-1",
        "target_acc": "0x1.999999999999ap-1",
        "losses": {
            "bound_lhs": "0x1.353c1ce8e8b5ep-3",
            "bound_rhs": "0x1.20426ab625b5bp+1",
            "confuse_src": "0x1.f6938bbc25c06p-1",
            "confuse_tgt": "0x1.a46eaa5a81586p-1",
            "discrim": "0x1.4638df6e25562p+0",
            "task_s": "0x1.2fc1f18f82574p-3",
            "task_t": "0x1.cce46ac6db458p-3",
        },
        "proxy": "-0x1.2376ea4d2ebccp-4",
        "params": "3cb22ce05ed930de24ce1ae3f094bdbe9d07e636930bad740bc5ab50cd685dda",
        "target_accs": ["0x1.5f92c5f92c5f9p-1", "0x1.70a3d70a3d70ap-1", "0x1.999999999999ap-1"],
        "open_set": ["0x1.b99999999999ap-1", "0x1.eeeeeeeeeeeefp-1", "0x1.199999999999ap-1"],
    },
}


def test_pac_report_on_default_moons_file(tmp_path):
    assert pac_report_values(tmp_path) == EXPECTED_PAC


def test_pac_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The golden ``pac-report`` in exactly two processes, at one and at two
    OpenBLAS threads: the files must be byte-identical."""
    data = tmp_path / "moons.csv"
    assert main(["gen-data", "--out", str(data)]) == 0
    src = str(Path(mcsda.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / ("pac%s.json" % threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + path if path else src
        argv = ["pac-report", "--data", str(data), "--out", str(out)]
        subprocess.run([sys.executable, "-m", "mcsda", *argv], env=env, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[0]).hexdigest() == EXPECTED_PAC["sha256"]


def test_k10_ascent():
    assert ascent_values() == EXPECTED_ASCENT


@pytest.mark.parametrize("method", RUN_METHODS)
def test_short_seeded_run(method):
    assert run_values(method) == EXPECTED_RUNS[method]


@pytest.mark.parametrize("method", RUN_METHODS)
def test_short_seeded_minibatch_run(method):
    assert run_values(method, full_batch_limit=32) == EXPECTED_MINIBATCH_RUNS[method]


@pytest.mark.parametrize("mode", RUN_MODES)
def test_short_seeded_mode_run(mode):
    assert mode_run_values(mode) == EXPECTED_MODE_RUNS[mode]


EXPECTED_THEORY = {
    "ramp_properties": [True, {"worst_lipschitz_excess": "0x1.0000000000000p-53"}],
    "margin_decision_property": [True, {"violations": 0}],
    "per_component_identity": [
        True,
        {
            "worst_abs_gap": "0x1.8000000000000p-45",
            "tol": "0x1.19799812dea11p-40",
            "mutant_rho_scale": "0x1.0000000000000p+0",
        },
    ],
    "pointwise_lemmas": [True, {"worst_excess_a": "0x0.0p+0", "worst_excess_b": "0x0.0p+0"}],
    "decision_level_lemmas": [True, {"worst_excess": "0x0.0p+0", "structure_ok": True}],
    "pointwise_metric_properties": [True, {"worst_triangle_excess": "0x1.4000000000000p-51"}],
    "surrogate_identities": [
        True,
        {
            "worst_identity_gap": "0x1.0000000000000p-49",
            "kl_triangle_violation": "0x1.4c28323cc79d4p-5",
            "ce_triangle_violation": "0x1.5a48142fa31b0p-2",
        },
    ],
    "enumerated_universe_bounds": [
        True,
        {
            "worst_excess_matrix": "-0x1.565f8d6d5b982p+0",
            "worst_excess_tilde": "-0x1.3c8ac984a3d6dp+0",
            "worst_excess_hat": "-0x1.3c8ac984a3d6dp+0",
            "n_universes": 20,
        },
    ],
    "divergence_properties": [
        True,
        {
            "worst_negative_value": "0x1.2492492492492p-2",
            "worst_triangle_excess": "-0x1.35027471b3840p-7",
            "largest_asymmetry_witness": "0x1.7dfbb35aaef0cp-2",
        },
    ],
    "adversarial_estimator": [
        True,
        {
            "ascent_value": "0x1.8000000000004p+1",
            "exact_over_visited": "0x1.8000000000004p+1",
            "monotone": True,
            "identical_samples_value": "0x0.0p+0",
            "ascent_warning": None,
        },
    ],
    "rademacher_sign_symmetric": [
        True,
        {
            "estimate": "0x1.8e89e90ba76dcp-2",
            "oracle": "0x1.87f20fc12888fp-2",
            "gap": "0x1.a5f6529fb9340p-8",
            "stderr": "0x1.1d1d459c814ffp-8",
        },
    ],
    "finite_sample_bound": [
        True,
        {
            "lhs": "0x1.5555555555556p-3",
            "rhs": "0x1.6ccb63f849f78p+5",
            "divergence": "0x1.3505031f41e5cp-2",
        },
    ],
    "schedule_closed_forms": [True, {"worst_gap": "0x1.0000000000000p-52"}],
}


def test_theory_report_at_cli_defaults():
    assert theory_values() == EXPECTED_THEORY
