"""Independent brute-force oracles used to pin expected values in tests.

Everything here is written from first principles (loops, closed forms,
pair counting) so test expectations never depend on the code under test.
"""

import numpy as np


# ---------------------------------------------------------------- attention

def softmax_rows(scores: np.ndarray) -> np.ndarray:
    out = np.empty_like(scores, dtype=np.float64)
    for i in range(scores.shape[0]):
        row = scores[i] - scores[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def time_attention_oracle(
    query_emb: np.ndarray,  # [a x d_v] already time-embedded queries
    key_emb: np.ndarray,  # [l x d_v]
    values: np.ndarray,  # [l x c]
    w_q: np.ndarray,
    w_k: np.ndarray,
) -> np.ndarray:
    """Direct score/softmax/weighted-sum evaluation, one entry at a time."""
    a, d_v = query_emb.shape
    l = key_emb.shape[0]
    if l == 0:
        return np.zeros((a, values.shape[1]))
    q = query_emb @ w_q
    k = key_emb @ w_k
    scores = np.empty((a, l))
    for i in range(a):
        for j in range(l):
            scores[i, j] = float(np.dot(q[i], k[j])) / np.sqrt(d_v)
    w = softmax_rows(scores)
    out = np.zeros((a, values.shape[1]))
    for i in range(a):
        for j in range(l):
            out[i] += w[i, j] * values[j]
    return out


def multihead_attention_oracle(
    q_in: np.ndarray,  # [a x d]
    kv_in: np.ndarray,  # [l x d]
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    w_o: np.ndarray,
    b_q: np.ndarray,
    b_k: np.ndarray,
    b_v: np.ndarray,
    b_o: np.ndarray,
    heads: int,
    key_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-head scaled dot-product attention evaluated head by head. With a
    key_mask that hides every key, the weights are zero, so each head's merged
    output is zero."""
    a, d = q_in.shape
    dk = d // heads
    q = q_in @ w_q + b_q
    k = kv_in @ w_k + b_k
    v = kv_in @ w_v + b_v
    merged = np.zeros((a, d))
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dk)
        if key_mask is not None:
            if not key_mask.any():
                continue
            scores = np.where(key_mask[None, :], scores, -np.inf)
        w = softmax_rows(scores)
        merged[:, sl] = w @ v[:, sl]
    return merged @ w_o + b_o


def layer_norm_oracle(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


# ------------------------------------------------------------------ imputation

def forward_fill_loop(values: np.ndarray, mask: np.ndarray, global_mean: np.ndarray) -> np.ndarray:
    """Forward-fill each column of [alpha x d_m] ``values`` over its observed
    bins (``mask``), one bin at a time; leading gaps take ``global_mean``."""
    out = values.copy()
    filled = np.where(mask[0], values[0], global_mean)
    out[0] = filled
    for b in range(1, values.shape[0]):
        filled = np.where(mask[b], values[b], filled)
        out[b] = filled
    return out


# ------------------------------------------------------------------ metrics

def auroc_pairs(scores, labels) -> float:
    """O(n^2) concordant-pair probability with ties counted 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def auroc_tie_loop(scores, labels) -> float:
    """Mann-Whitney rank sum, each tie group found by a scan over the sorted
    scores and given the mean of its ranks."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)  # mean of ranks i+1..j
        i = j
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def aupr_prefix(scores, labels) -> float:
    """Average precision by walking descending-score prefixes, equal scores grouped."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    ap = 0.0
    tp = 0
    fp = 0
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp += int((y[i:j] == 1).sum())
        fp += int((y[i:j] == 0).sum())
        recall_step = int((y[i:j] == 1).sum()) / n_pos
        precision = tp / (tp + fp)
        ap += recall_step * precision
        i = j
    return ap


def f1_by_hand(scores, labels, threshold: float = 0.5) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


# --------------------------------------------------- synthetic-data decoders

def decode_ts_bit(episode, alpha_hours: float, feature: int = 0) -> int:
    """Plug-in decoder: local-linear estimate of the latent near the window tail."""
    t_star = 0.875
    bandwidth = 0.2
    times = np.array([o.time / alpha_hours for o in episode.observations if o.feature_index == feature])
    values = np.array([o.value for o in episode.observations if o.feature_index == feature])
    if times.size == 0:
        return 0
    w = np.exp(-0.5 * ((times - t_star) / bandwidth) ** 2)
    if times.size >= 2 and np.ptp(times) > 1e-9:
        # weighted local-linear fit, evaluated at t_star
        x = times - t_star
        sw, sx, sxx = w.sum(), (w * x).sum(), (w * x * x).sum()
        sy, sxy = (w * values).sum(), (w * x * values).sum()
        det = sw * sxx - sx * sx
        if abs(det) > 1e-12:
            est = (sxx * sy - sx * sxy) / det
        else:
            est = sy / sw
    else:
        est = (w * values).sum() / w.sum()
    return int(est > 0.0)


def decode_note_bit(episode, direction: np.ndarray) -> int:
    """Plug-in decoder: sign of the mean projection onto the planted direction."""
    projections = [float(np.dot(n.embedding, direction)) for n in episode.notes]
    return int(np.mean(projections) > 0.0)
