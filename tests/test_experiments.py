"""Experiment harness: trial lists and the held-out evaluation set."""

from dataclasses import replace

import pytest

from cel.corpus import build_manifest
from cel.errors import CorpusTooSmallError
from cel import experiments
from cel.experiments import build_trials, finetune_arm, held_out_set, pretrain_arm
from cel.trainer import CorpusSource, TrainResult


def source(n_speakers, utterances):
    # Trial lists read only utterance keys, so no audio is synthesized.
    return CorpusSource(build_manifest(n_speakers, utterances, 4.0, seed=3))


class TestBuildTrials:
    @pytest.mark.parametrize("utterances, wanted, available", [(5, 60, 50), (6, 90, 72)])
    def test_more_nontargets_than_pairs_rejected(self, utterances, wanted, available):
        # 2 speakers x U utterances: 2*C(U,2) targets, 2*U*U ordered cross pairs.
        with pytest.raises(CorpusTooSmallError, match=f"{wanted} non-target.* only {available}"):
            build_trials(source(2, utterances), nontarget_per_target=3)

    def test_exact_fit_draws_every_cross_speaker_pair(self):
        src = source(2, 3)  # 6 targets, 18 non-targets wanted, 18 ordered cross pairs
        trials = build_trials(src, nontarget_per_target=3)
        pairs = {(t.enroll_id, t.test_id) for t in trials if not t.is_target}
        keys = [[src.utterance_key(s, u) for u in range(3)] for s in range(2)]
        want = {(a, b) for s in range(2) for a in keys[s] for b in keys[1 - s]}
        assert pairs == want and len(trials) == 24

    def test_fitting_request_is_distinct_and_seeded(self):
        src = source(2, 5)
        trials = build_trials(src, nontarget_per_target=2, seed=4)
        nontargets = [(t.enroll_id, t.test_id) for t in trials if not t.is_target]
        assert len(nontargets) == len(set(nontargets)) == 40
        assert build_trials(src, nontarget_per_target=2, seed=4) == trials


class TestHeldOutArm:
    def test_arms_of_one_run_score_one_source(self, monkeypatch, desk_run):
        # Training and scoring are stubbed: only the sources each arm trains
        # on and scores matter.
        trained, scored = [], []

        def untrained(source, cfg, *args, **kwargs) -> TrainResult:
            trained.append(source)
            return TrainResult({}, None, [], "")

        def eer_of_params(source, params, trials, *args, bank, aug_seed):
            scored.append((source, trials, bank))
            return 0.0

        monkeypatch.setattr(experiments, "pretrain", untrained)
        monkeypatch.setattr(experiments, "finetune", untrained)
        monkeypatch.setattr(experiments, "eer_of_params", eer_of_params)
        pretrain_arm(desk_run, 0)
        pretrain_arm(desk_run, 1, uniformity_weight=0.0)
        finetune_arm(desk_run, 0, "cosface", None)
        finetune_arm(desk_run.with_seed(5), 2, "ge2e", None)
        source, trials, bank = held_out_set(desk_run)
        assert isinstance(trials, tuple)
        assert len(scored) == len(trained) == 4
        for got in scored:
            assert got[0] is source and got[1] is trials and got[2] is bank
        assert all(got is trained[0] for got in trained)
        assert set(trained[0].speakers).isdisjoint(source.speakers)

    @pytest.mark.parametrize("section, change", [
        ("evaluation", {"eval_speakers": 6}),
        ("evaluation", {"nontarget_per_target": 2}),
        ("corpus", {"seed": 101}),
    ])
    def test_another_split_gets_another_source(self, desk_run, section, change):
        other = replace(desk_run, **{section: replace(getattr(desk_run, section), **change)})
        assert held_out_set(other)[0] is not held_out_set(desk_run)[0]

    def test_split_too_small_for_its_trials_fails_before_training(self, desk_run, tmp_path):
        run = replace(desk_run, evaluation=replace(desk_run.evaluation, eval_speakers=2))
        with pytest.raises(CorpusTooSmallError, match="90 non-target.* only 72"):
            pretrain_arm(run, 0, out_dir=tmp_path)
        # The failure is not cached: a second arm fails the same way.
        with pytest.raises(CorpusTooSmallError, match="90 non-target.* only 72"):
            finetune_arm(run, 0, "cosface", None, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())
