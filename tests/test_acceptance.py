"""Acceptance checklist: ten end-to-end criteria with visible verdict lines.

Each test computes its measurements first, prints one ``[criterion NN]``
PASS/FAIL line outside pytest's capture (so the line shows up in any run),
and only then asserts.  The desk-scale experiments share their three
pretraining runs through module-scoped fixtures so the whole file stays
inside the stated wall-clock budgets on a single CPU core.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import oracles
from cel.augment import add_noise, apply_rir, white_noise
from cel.config import RunConfig
from cel.evaluation import Trial, eer, min_dcf
from cel.experiments import (
    equilibrium_descent,
    finetune_arm,
    held_out_set,
    pretrain_arm,
    random_encoder_eer,
    uniform_sphere_uniformity,
)
from cel.features import Waveform, frame_count
from cel.finetune import (
    AdaCosState,
    LabeledBatch,
    MarginConfig,
    adacos_loss,
    arcface_loss,
    cosface_loss,
    ge2e_loss,
)
from cel.gradcheck import run_suite
from cel.losses import (
    CelWeights,
    EmbeddingBatch,
    KernelParam,
    SimilarityParams,
    acont_loss,
    aprot_loss,
    gaussian_potential,
    total_loss,
    uniformity_loss,
)
from cel.rng import derive_rng

SEEDS = (0, 1, 2)
LOSS_SCOPES = ("unif", "aprot", "acont", "total", "ge2e", "cosface", "arcface", "adacos")
FINETUNE_OBJECTIVES = ("aprot", "cosface", "ge2e")


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def unit_rows(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    x = rng.standard_normal((n, m))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_rotation(rng: np.random.Generator, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients match central finite differences.
# ---------------------------------------------------------------------------


def test_c01_analytic_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    results = run_suite(LOSS_SCOPES, seed=11)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    fewest = min(r.instances for r in results)
    ok = (
        all(r.max_rel_err < 1e-5 for r in results)
        and fewest >= 20
        and elapsed < 60.0
    )
    report(
        capsys, 1, ok,
        f"{len(results)} losses x >={fewest} instances, worst rel err "
        f"{worst:.2e} (< 1e-5), {elapsed:.1f}s (< 60s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: closed-form values on hand-checkable batches.
# ---------------------------------------------------------------------------


def test_c02_losses_hit_closed_form_values(capsys):
    kernel = KernelParam(t=2.0)
    eye = np.eye(2)
    pair = EmbeddingBatch(view1=eye, view2=eye)
    unif = uniformity_loss(pair, kernel).value

    sim = SimilarityParams(scale=1.0, bias=0.0)
    want_sim = math.log(1.0 + math.exp(-1.0))
    ap = aprot_loss(pair, sim).value
    ac = acont_loss(pair, sim).value

    g_orth = gaussian_potential(np.array([1.0, 0.0]), np.array([0.0, 1.0]), kernel)
    g_anti = gaussian_potential(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), kernel)

    errs = {
        "unif(-4)": abs(unif - (-4.0)),
        "aprot": abs(ap - want_sim),
        "acont": abs(ac - want_sim),
        "G(orth)": abs(g_orth - math.exp(-4.0)),
        "G(anti)": abs(g_anti - math.exp(-8.0)),
    }
    ok = (
        errs["unif(-4)"] < 1e-10
        and errs["aprot"] < 1e-10
        and errs["acont"] < 1e-10
        and errs["G(orth)"] < 1e-12
        and errs["G(anti)"] < 1e-12
    )
    detail = ", ".join(f"{k} err {v:.1e}" for k, v in errs.items())
    report(capsys, 2, ok, detail)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: structural invariants over randomized batches.
# ---------------------------------------------------------------------------


def test_c03_loss_invariants_hold_on_random_batches(capsys):
    rng = derive_rng(3, "acceptance-invariants")
    n_batches = 120
    bound_violation = 0.0
    worst_rot = 0.0
    worst_perm = 0.0
    worst_swap = 0.0
    worst_margin0 = 0.0

    for _ in range(n_batches):
        k = int(rng.integers(2, 9))
        m = int(rng.integers(3, 17))
        t = float(rng.uniform(0.5, 4.0))
        kernel = KernelParam(t=t)
        v1, v2 = unit_rows(rng, k, m), unit_rows(rng, k, m)
        batch = EmbeddingBatch(view1=v1, view2=v2)
        sim = SimilarityParams(float(rng.uniform(0.5, 10.0)), float(rng.uniform(-5.0, 1.0)))
        weights = CelWeights(uniformity_weight=float(rng.uniform(0.0, 2.0)))

        # Bounds: the batch uniformity value lives in [-4t, 0].
        u = uniformity_loss(batch, kernel).value
        bound_violation = max(bound_violation, (-4.0 * t) - u, u - 0.0)

        # Global rotation of all embeddings leaves uniformity unchanged.
        q = random_rotation(rng, m)
        u_rot = uniformity_loss(EmbeddingBatch(view1=v1 @ q, view2=v2 @ q), kernel).value
        worst_rot = max(worst_rot, abs(u_rot - u))

        # Joint speaker permutation leaves every batch loss unchanged.
        perm = rng.permutation(k)
        pbatch = EmbeddingBatch(view1=v1[perm], view2=v2[perm])
        for fn in (
            lambda b: uniformity_loss(b, kernel).value,
            lambda b: aprot_loss(b, sim).value,
            lambda b: acont_loss(b, sim).value,
            lambda b: total_loss(b, kernel, sim, weights).value,
        ):
            worst_perm = max(worst_perm, abs(fn(pbatch) - fn(batch)))

        utt = int(rng.integers(2, 5))
        g_emb = unit_rows(rng, k * utt, m)
        g_val = ge2e_loss(g_emb.reshape(k, utt, m), sim).value
        order = np.concatenate(
            [s * utt + rng.permutation(utt) for s in rng.permutation(k)]
        )
        g_perm = ge2e_loss(g_emb[order].reshape(k, utt, m), sim).value
        worst_perm = max(worst_perm, abs(g_perm - g_val))

        n_cls = int(rng.integers(2, 9))
        n_rows = int(rng.integers(4, 17))
        c_emb = unit_rows(rng, n_rows, m)
        c_w = unit_rows(rng, n_cls, m)
        labels = rng.integers(0, n_cls, size=n_rows)
        margin_cfg = MarginConfig(margin=0.2, scale=8.0)
        row_perm = rng.permutation(n_rows)
        for fn in (
            lambda e, y: cosface_loss(LabeledBatch(e, y, n_cls), c_w, margin_cfg).value,
            lambda e, y: arcface_loss(LabeledBatch(e, y, n_cls), c_w, margin_cfg).value,
            lambda e, y: adacos_loss(
                LabeledBatch(e, y, n_cls), c_w, AdaCosState(scale=8.0), update_scale=False
            ).value,
        ):
            worst_perm = max(
                worst_perm, abs(fn(c_emb[row_perm], labels[row_perm]) - fn(c_emb, labels))
            )

        # Swapping the two views leaves the symmetric contrastive loss unchanged.
        swapped = acont_loss(EmbeddingBatch(view1=v2, view2=v1), sim).value
        worst_swap = max(worst_swap, abs(swapped - acont_loss(batch, sim).value))

        # At zero margin both margin losses reduce to scaled softmax CE.
        scale0 = float(rng.uniform(1.0, 30.0))
        cfg0 = MarginConfig(margin=0.0, scale=scale0)
        lb = LabeledBatch(c_emb, labels, n_cls)
        logits = scale0 * (c_emb @ c_w.T)
        shifted = logits - logits.max(axis=1, keepdims=True)
        ce = float(
            np.mean(
                np.log(np.sum(np.exp(shifted), axis=1))
                - shifted[np.arange(n_rows), labels]
            )
        )
        worst_margin0 = max(
            worst_margin0,
            abs(cosface_loss(lb, c_w, cfg0).value - ce),
            abs(arcface_loss(lb, c_w, cfg0).value - ce),
        )

    ok = (
        bound_violation <= 1e-12
        and worst_rot < 1e-9
        and worst_perm < 1e-12
        and worst_swap < 1e-12
        and worst_margin0 < 1e-10
    )
    report(
        capsys, 3, ok,
        f"{n_batches} batches each — bound excess {bound_violation:.1e}, "
        f"rotation {worst_rot:.1e} (< 1e-9), permutation {worst_perm:.1e} (< 1e-12), "
        f"view swap {worst_swap:.1e} (< 1e-12), zero-margin CE gap {worst_margin0:.1e} (< 1e-10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: gradient descent on uniformity alone reaches the uniform level.
# ---------------------------------------------------------------------------


def test_c04_uniformity_descent_reaches_uniform_level(capsys):
    t0 = time.perf_counter()
    kernel = KernelParam(t=2.0)
    final, _ = equilibrium_descent(
        n_points=512, dim=3, steps=2000, lr=1.0, kernel=kernel, seed=0
    )
    reference = uniform_sphere_uniformity(512, 3, kernel, seed=1, draws=20)
    elapsed = time.perf_counter() - t0
    gap = abs(final - reference)
    ok = gap < 0.05 and elapsed < 120.0
    report(
        capsys, 4, ok,
        f"descended value {final:.4f} vs uniform-draw reference {reference:.4f}, "
        f"gap {gap:.4f} (< 0.05), {elapsed:.0f}s (< 120s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: EER and minDCF match brute-force oracles.
# ---------------------------------------------------------------------------


def test_c05_metrics_match_brute_force_oracles(capsys):
    rng = np.random.default_rng(505)
    max_eer_diff = 0.0
    max_dcf_diff = 0.0
    for _ in range(1000):
        n_t = int(rng.integers(1, 51))
        n_n = int(rng.integers(1, 51))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            t = rng.normal(0.5, 0.3, n_t)
            n = rng.normal(-0.2, 0.3, n_n)
        elif kind == 1:
            t = rng.integers(-3, 4, n_t) / 4.0
            n = rng.integers(-4, 3, n_n) / 4.0
        else:
            t = rng.uniform(-1, 1, n_t)
            n = rng.uniform(-1, 1, n_n)
        trials = [Trial("e", "x", True, float(s)) for s in t]
        trials += [Trial("e", "x", False, float(s)) for s in n]
        max_eer_diff = max(max_eer_diff, abs(eer(trials)[0] - oracles.oracle_eer(t, n)))
        max_dcf_diff = max(
            max_dcf_diff, abs(min_dcf(trials)[0] - oracles.oracle_min_dcf(t, n))
        )

    worked = [Trial("e", "x", True, s) for s in (0.9, 0.8, 0.6)]
    worked += [Trial("e", "x", False, s) for s in (0.7, 0.3, 0.2)]
    worked_eer = eer(worked)[0]
    worked_err = abs(worked_eer - 1.0 / 3.0)

    ok = max_eer_diff <= 1e-12 and max_dcf_diff <= 1e-12 and worked_err < 1e-15
    report(
        capsys, 5, ok,
        f"1000 trial sets — max |EER diff| {max_eer_diff:.1e}, "
        f"max |minDCF diff| {max_dcf_diff:.1e} (both <= 1e-12); "
        f"worked example EER {worked_eer:.6f} (want 1/3)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Desk-scale experiment fixtures shared by criteria 6-9.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arm:
    seed: int
    eer: float
    checkpoint: Path
    out_dir: Path


@dataclass(frozen=True)
class ArmSet:
    arms: tuple[Arm, ...]
    elapsed: float

    @property
    def median_eer(self) -> float:
        return float(np.median([a.eer for a in self.arms]))


def pretrain_arm_set(run: RunConfig, root: Path, weight: float) -> ArmSet:
    t0 = time.perf_counter()
    arms = []
    for seed in SEEDS:
        out = root / f"unif{weight:g}-seed{seed}"
        value, result = pretrain_arm(run, seed, uniformity_weight=weight, out_dir=out)
        arms.append(Arm(seed, value, Path(result.checkpoint_path), out))
    return ArmSet(tuple(arms), time.perf_counter() - t0)


@pytest.fixture(scope="module")
def heavy_dirs(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("desk-runs")


@pytest.fixture(scope="module")
def lambda1_arms(desk_run, heavy_dirs) -> ArmSet:
    return pretrain_arm_set(desk_run, heavy_dirs, 1.0)


@pytest.fixture(scope="module")
def lambda0_arms(desk_run, heavy_dirs) -> ArmSet:
    return pretrain_arm_set(desk_run, heavy_dirs, 0.0)


@pytest.fixture(scope="module")
def desk_eval(desk_run):
    return held_out_set(desk_run)


# ---------------------------------------------------------------------------
# Criterion 6: desk-scale self-supervised training beats a random encoder.
# ---------------------------------------------------------------------------


def test_c06_desk_training_beats_random_encoder(capsys, desk_run, lambda1_arms, desk_eval):
    eval_src, trials, bank = desk_eval
    t0 = time.perf_counter()
    random_eers = [
        random_encoder_eer(
            eval_src, trials, desk_run.encoder, desk_run.features, seed,
            bank=bank, aug_seed=desk_run.corpus.seed,
        )
        for seed in SEEDS
    ]
    elapsed = lambda1_arms.elapsed + (time.perf_counter() - t0)
    trained = lambda1_arms.median_eer
    untrained = float(np.median(random_eers))
    margin = untrained - trained
    ok = (
        len(trials) >= 400
        and trained < 0.30
        and margin >= 0.10
        and elapsed < 600.0
    )
    report(
        capsys, 6, ok,
        f"median EER over 3 seeds {trained:.1%} (< 30%), random encoder "
        f"{untrained:.1%}, margin {margin:.1%} (>= 10 pts), "
        f"{len(trials)} held-out trials (>= 400), {elapsed:.0f}s (< 600s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: pretrained initialization helps supervised fine-tuning.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def finetune_medians(desk_run, lambda1_arms):
    t0 = time.perf_counter()
    medians = {}
    for objective in FINETUNE_OBJECTIVES:
        pre, rand = [], []
        for arm in lambda1_arms.arms:
            value_pre, _ = finetune_arm(desk_run, arm.seed, objective, arm.checkpoint)
            value_rand, _ = finetune_arm(desk_run, arm.seed, objective, None)
            pre.append(value_pre)
            rand.append(value_rand)
        medians[objective] = (float(np.median(pre)), float(np.median(rand)))
    return medians, time.perf_counter() - t0


def test_c07_pretrained_init_helps_finetuning(capsys, desk_run, finetune_medians):
    medians, elapsed = finetune_medians
    wins = sum(pre <= rand for pre, rand in medians.values())
    ok = wins >= 2 and elapsed < 1200.0
    pairs = ", ".join(
        f"{obj} {pre:.1%} vs {rand:.1%}" for obj, (pre, rand) in medians.items()
    )
    report(
        capsys, 7, ok,
        f"pretrained vs random init at equal budget ({desk_run.finetune.epochs} "
        f"epochs): {pairs}; {wins}/3 objectives improved (>= 2), "
        f"{elapsed:.0f}s (< 1200s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: dropping the uniformity term does not help.
# ---------------------------------------------------------------------------


def test_c08_uniformity_term_does_not_hurt_eer(capsys, lambda1_arms, lambda0_arms):
    with_term = lambda1_arms.median_eer
    without_term = lambda0_arms.median_eer
    ok = with_term <= without_term
    report(
        capsys, 8, ok,
        f"median EER with uniformity weight 1 is {with_term:.1%} <= "
        f"{without_term:.1%} with weight 0",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: identical seeds reproduce logs and checkpoints byte for byte.
# ---------------------------------------------------------------------------


def test_c09_identical_seeds_reproduce_bytes(capsys, desk_run, heavy_dirs, lambda1_arms):
    rerun = pretrain_arm_set(desk_run, heavy_dirs / "rerun", 1.0)
    same_metrics = all(
        (a.out_dir / "metrics.tsv").read_bytes() == (b.out_dir / "metrics.tsv").read_bytes()
        for a, b in zip(lambda1_arms.arms, rerun.arms)
    )
    same_ckpt = all(
        a.checkpoint.read_bytes() == b.checkpoint.read_bytes()
        for a, b in zip(lambda1_arms.arms, rerun.arms)
    )
    same_eer = all(
        a.eer == b.eer for a, b in zip(lambda1_arms.arms, rerun.arms)
    )
    ok = same_metrics and same_ckpt and same_eer
    report(
        capsys, 9, ok,
        f"3 reruns — metric logs byte-identical: {same_metrics}, "
        f"checkpoints byte-identical: {same_ckpt}, held-out EERs equal: {same_eer}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: feature and augmentation contracts.
# ---------------------------------------------------------------------------


def test_c10_feature_and_augmentation_contracts(capsys):
    rng = derive_rng(10, "acceptance-contracts")

    mismatches = 0
    for _ in range(1000):
        win = int(rng.integers(64, 801))
        hop = int(rng.integers(32, 401))
        n = int(rng.integers(0, 100_001))
        want = 0
        start = 0
        while start + win <= n:
            want += 1
            start += hop
        mismatches += frame_count(n, win, hop) != want

    sr = 16000
    tt = np.arange(2 * sr) / sr
    signal = Waveform(0.1 * np.sin(2.0 * np.pi * 220.0 * tt))
    noise = white_noise(3 * sr, derive_rng(10, "noise"))
    worst_snr = 0.0
    clipped = False
    for snr_db in (-5.0, 0.0, 5.0, 12.5, 20.0, 30.0):
        result = add_noise(signal, noise, snr_db, derive_rng(10, "offset", str(snr_db)))
        clipped = clipped or result.clip_fraction > 0.0
        added = result.waveform.samples - signal.samples
        measured = 10.0 * math.log10(
            float(np.mean(signal.samples**2)) / float(np.mean(added**2))
        )
        worst_snr = max(worst_snr, abs(measured - snr_db))

    x = Waveform(np.clip(0.2 * derive_rng(10, "dry").standard_normal(4000), -0.9, 0.9))
    identity = np.array_equal(apply_rir(x, np.array([1.0])).samples, x.samples)

    ok = mismatches == 0 and not clipped and worst_snr < 0.01 and identity
    report(
        capsys, 10, ok,
        f"frame-count mismatches 0/1000: {mismatches == 0}, worst SNR error "
        f"{worst_snr:.4f} dB (< 0.01), unit-impulse identity exact: {identity}",
    )
    assert ok
