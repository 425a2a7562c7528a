"""Experiment harness: trial lists and the held-out evaluation set."""

from dataclasses import replace

import pytest

from cel.config import desk_profile
from cel.corpus import build_manifest
from cel.errors import CorpusTooSmallError
from cel.experiments import build_trials, pretrain_arm
from cel.trainer import CorpusSource


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
    def test_split_too_small_for_its_trials_fails_before_training(self, tmp_path):
        run = desk_profile()
        run = replace(run, evaluation=replace(run.evaluation, eval_speakers=2))
        with pytest.raises(CorpusTooSmallError, match="90 non-target.* only 72"):
            pretrain_arm(run, 0, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())
