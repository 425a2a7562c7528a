"""Slow, independent reference implementations used to check the fast paths.

Everything here is written as plain loops straight from the defining
formulas, with no code shared with the package. Deliberately O(slow).
The one exception, `separability`, measures the package's own synthetic
corpus, so it reads utterances and log-mels through the package.

The similarity oracles keep the paper's affine score w * cos + b; the
package scores w * cos, and a softmax cross-entropy does not change when
one constant is added to every logit, so both must agree at any b.
"""

from __future__ import annotations

import math

import numpy as np


def unit(v):
    return np.asarray(v, dtype=float) / math.sqrt(float(np.dot(v, v)))


def oracle_pairwise_uniformity(points, t=2.0):
    """log of the mean Gaussian potential over unordered unit-vector pairs."""
    x = [unit(p) for p in np.asarray(points, dtype=float)]
    total, count = 0.0, 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            d2 = float(np.sum((x[i] - x[j]) ** 2))
            total += math.exp(-t * d2)
            count += 1
    return math.log(total / count)


def oracle_uniformity(view1, view2, t=2.0):
    return 0.5 * oracle_pairwise_uniformity(view1, t) + 0.5 * oracle_pairwise_uniformity(
        view2, t
    )


def _cos(a, b):
    return float(np.dot(unit(a), unit(b)))


def oracle_aprot(view1, view2, w=10.0, b=-5.0):
    """Softmax CE where row i's positive is column i of the affine cosine."""
    k = len(view1)
    loss = 0.0
    for i in range(k):
        scores = [w * _cos(view1[i], view2[j]) + b for j in range(k)]
        m = max(scores)
        lse = m + math.log(sum(math.exp(s - m) for s in scores))
        loss += lse - scores[i]
    return loss / k


def oracle_acont(view1, view2, w=10.0, b=-5.0):
    return 0.5 * oracle_aprot(view1, view2, w, b) + 0.5 * oracle_aprot(view2, view1, w, b)


def oracle_total(view1, view2, lam=1.0, t=2.0, w=10.0, b=-5.0, kind="aprot"):
    sim = oracle_aprot if kind == "aprot" else oracle_acont
    return lam * oracle_uniformity(view1, view2, t) + sim(view1, view2, w, b)


def oracle_ge2e(groups, w=10.0, b=-5.0):
    """groups: [speakers][utterances][dim] nested lists.

    Own-centroid excludes the utterance itself; other centroids include all.
    """
    speakers = len(groups)
    utterances = len(groups[0])
    loss = 0.0
    for j in range(speakers):
        for i in range(utterances):
            e = np.asarray(groups[j][i], dtype=float)
            scores = []
            for k in range(speakers):
                if k == j:
                    c = (
                        np.sum(np.asarray(groups[j], dtype=float), axis=0) - e
                    ) / (utterances - 1)
                else:
                    c = np.mean(np.asarray(groups[k], dtype=float), axis=0)
                scores.append(w * _cos(e, c) + b)
            m = max(scores)
            lse = m + math.log(sum(math.exp(s - m) for s in scores))
            loss += lse - scores[j]
    return loss / (speakers * utterances)


def oracle_cosface(embeddings, labels, weights, m=0.2, s=30.0):
    n = len(embeddings)
    loss = 0.0
    for i in range(n):
        logits = [s * _cos(embeddings[i], wk) for wk in weights]
        logits[labels[i]] = s * (_cos(embeddings[i], weights[labels[i]]) - m)
        mx = max(logits)
        lse = mx + math.log(sum(math.exp(v - mx) for v in logits))
        loss += lse - logits[labels[i]]
    return loss / n


def oracle_arcface(embeddings, labels, weights, m=0.2, s=30.0):
    clamp = 1.0 - 1e-7
    n = len(embeddings)
    loss = 0.0
    for i in range(n):
        logits = [s * _cos(embeddings[i], wk) for wk in weights]
        c = min(max(_cos(embeddings[i], weights[labels[i]]), -clamp), clamp)
        logits[labels[i]] = s * math.cos(math.acos(c) + m)
        mx = max(logits)
        lse = mx + math.log(sum(math.exp(v - mx) for v in logits))
        loss += lse - logits[labels[i]]
    return loss / n


def oracle_adacos_value(embeddings, labels, weights, scale):
    """AdaCos forward pass: scaled-cosine CE at the current dynamic scale."""
    return oracle_cosface(embeddings, labels, weights, m=0.0, s=scale)


def oracle_adacos_next_scale(embeddings, labels, weights, scale):
    """Scale update from the median target angle and mean non-target mass."""
    n = len(embeddings)
    b_sum = 0.0
    angles = []
    for i in range(n):
        for k in range(len(weights)):
            c = _cos(embeddings[i], weights[k])
            if k == labels[i]:
                angles.append(math.acos(min(max(c, -1.0), 1.0)))
            else:
                b_sum += math.exp(scale * c)
    b_avg = b_sum / n
    theta = min(math.pi / 4.0, float(np.median(angles)))
    return math.log(b_avg) / math.cos(theta)


def oracle_error_rates(targets, nontargets, threshold):
    """Accept iff score >= threshold."""
    p_miss = sum(1 for s in targets if s < threshold) / len(targets)
    p_fa = sum(1 for s in nontargets if s >= threshold) / len(nontargets)
    return p_miss, p_fa


def oracle_sweep(targets, nontargets):
    """All distinct scores plus an accept-nothing sentinel, ascending."""
    distinct = sorted(set(targets) | set(nontargets))
    return distinct + [distinct[-1] + 1.0]


def oracle_eer(targets, nontargets):
    """Crossing of the miss/false-alarm staircases, interpolated linearly
    in sweep position."""
    sweep = oracle_sweep(targets, nontargets)
    rates = [oracle_error_rates(targets, nontargets, th) for th in sweep]
    for i, (pm, pf) in enumerate(rates):
        if pm >= pf:
            if pm == pf or i == 0:
                return pm if pm == pf else max(pm, pf)
            pm0, pf0 = rates[i - 1]
            du = (pf0 - pm0) / ((pm - pm0) - (pf - pf0))
            return pm0 + du * (pm - pm0)
    raise AssertionError("no crossing: p_miss ends at 1 and p_fa at 0")


def oracle_min_dcf(targets, nontargets, c_miss=1.0, c_fa=1.0, p_target=0.05):
    sweep = oracle_sweep(targets, nontargets)
    best = math.inf
    for th in sweep:
        pm, pf = oracle_error_rates(targets, nontargets, th)
        dcf = c_miss * p_target * pm + c_fa * (1.0 - p_target) * pf
        best = min(best, dcf)
    return best / min(c_miss * p_target, c_fa * (1.0 - p_target))


def oracle_convolve(signal, impulse):
    """Direct O(N*L) convolution truncated to the signal length."""
    n, l = len(signal), len(impulse)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(min(i + 1, l)):
            acc += signal[i - j] * impulse[j]
        out[i] = acc
    return out


def oracle_snr_db(clean, added_noise):
    p_s = float(np.mean(np.asarray(clean, dtype=float) ** 2))
    p_n = float(np.mean(np.asarray(added_noise, dtype=float) ** 2))
    return 10.0 * math.log10(p_s / p_n)


def oracle_adam_steps(param, grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam trajectory with bias correction, one array."""
    p = np.asarray(param, dtype=float).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for step, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=float)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**step)
        v_hat = v / (1 - beta2**step)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def oracle_logmel_frame(samples, n_mels=40, n_fft=512, f_min=20.0, f_max=7600.0,
                        floor=1e-6, rate=16000):
    """One frame end to end: Hamming window, DFT power, mel triangles, log."""
    n = len(samples)
    w = [0.54 - 0.46 * math.cos(2 * math.pi * i / (n - 1)) for i in range(n)]
    x = [samples[i] * w[i] for i in range(n)]
    power = []
    for k in range(n_fft // 2 + 1):
        re = sum(x[i] * math.cos(-2 * math.pi * k * i / n_fft) for i in range(n))
        im = sum(x[i] * math.sin(-2 * math.pi * k * i / n_fft) for i in range(n))
        power.append(re * re + im * im)

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [imel(mel(f_min) + (mel(f_max) - mel(f_min)) * i / (n_mels + 1))
             for i in range(n_mels + 2)]
    freqs = [k * rate / n_fft for k in range(n_fft // 2 + 1)]
    out = []
    for b in range(n_mels):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        e = 0.0
        for k, f in enumerate(freqs):
            if lo < f < hi:
                weight = (f - lo) / (mid - lo) if f <= mid else (hi - f) / (hi - mid)
                e += weight * power[k]
        out.append(math.log(e + floor))
    return out


def separability(manifest):
    """Mean same-speaker and cross-speaker distance between utterance spectra.

    Each utterance is summarized by its time-averaged log-mel vector; returns
    (same_mean, cross_mean, relative_margin) where the margin is
    (cross - same) / cross. The corpus is considered informative when the
    margin is at least 0.10. Mean normalization is forced off here: it zeroes
    time-averaged features by construction.
    """
    from cel.corpus import utterance_waveform
    from cel.features import FeatureConfig, logmel

    cfg = FeatureConfig().without_normalization()
    vecs = []
    labels = []
    for i in range(manifest.n_speakers):
        for j in range(manifest.utterances_per_speaker):
            w = utterance_waveform(manifest, i, j)
            vecs.append(logmel(w, cfg).values.mean(axis=1))
            labels.append(i)
    mat = np.stack(vecs)
    lab = np.asarray(labels)
    d = np.linalg.norm(mat[:, None, :] - mat[None, :, :], axis=2)
    same_mask = (lab[:, None] == lab[None, :]) & ~np.eye(lab.size, dtype=bool)
    cross_mask = lab[:, None] != lab[None, :]
    same = float(d[same_mask].mean())
    cross = float(d[cross_mask].mean())
    return same, cross, (cross - same) / cross
