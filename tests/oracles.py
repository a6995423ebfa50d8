"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written without importing chemspan and
without regular expressions, matrix shortcuts, or shared helpers, so that
agreement between these oracles and the real implementations is evidence
rather than tautology.
"""

import dataclasses
import math

import numpy as np


# ---------------------------------------------------------------------------
# tokenization oracle: explicit character scanner

def _is_letter(ch):
    return ("A" <= ch <= "Z") or ("a" <= ch <= "z") or ("α" <= ch <= "ω") or ("Α" <= ch <= "Ω")


def _is_ascii_digit(ch):
    return "0" <= ch <= "9"


def scan_tokens(text):
    """Tokenize by scanning characters one at a time.

    Maximal letter runs (Latin or Greek), maximal ASCII digit runs, and
    single-character tokens for everything else that is not whitespace.
    Returns (surface, start, end) triples with end exclusive.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if _is_letter(ch):
            while j < n and _is_letter(text[j]):
                j += 1
        elif _is_ascii_digit(ch):
            while j < n and _is_ascii_digit(text[j]):
                j += 1
        out.append((text[i:j], i, j))
        i = j
    return out


# ---------------------------------------------------------------------------
# span enumeration oracle: brute force over all (start, end) pairs

def brute_force_spans(n_tokens, max_width):
    """Every (start, end) token span of width 1..max_width, as a set."""
    spans = set()
    for start in range(n_tokens):
        for end in range(start, n_tokens):
            if end - start + 1 <= max_width:
                spans.add((start, end))
    return spans


# ---------------------------------------------------------------------------
# scoring oracle: quadratic pairwise matcher over item lists

def pairwise_prf(gold_items, pred_items):
    """Match gold and predicted items by exact equality, one-to-one.

    Returns (tp, fp, fn, precision, recall, f1) with the zero-denominator
    conventions: empty predictions give precision 0, empty gold gives
    recall 0, and f1 is 0 whenever p + r is 0.
    """
    gold = list(gold_items)
    pred = list(pred_items)
    used = [False] * len(pred)
    tp = 0
    for g in gold:
        for k, p in enumerate(pred):
            if not used[k] and p == g:
                used[k] = True
                tp += 1
                break
    fp = len(pred) - tp
    fn = len(gold) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return tp, fp, fn, precision, recall, f1


# ---------------------------------------------------------------------------
# finite-difference oracle for gradients

def central_difference(loss_fn, array, index, epsilon):
    """d loss / d array[index] by central differences, restoring the entry."""
    original = array[index]
    array[index] = original + epsilon
    hi = loss_fn()
    array[index] = original - epsilon
    lo = loss_fn()
    array[index] = original
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ArithmeticError("non-finite loss during finite differencing")
    return (hi - lo) / (2.0 * epsilon)


# ---------------------------------------------------------------------------
# sentence coverage oracle: mark every covered character

def first_uncovered_offset(text, intervals):
    """Offset of the first non-whitespace character no interval covers, or None.

    The intervals must already be in bounds; they may be in any order.
    """
    covered = [False] * len(text)
    for start, end in intervals:
        for i in range(start, end):
            covered[i] = True
    for i, ch in enumerate(text):
        if not ch.isspace() and not covered[i]:
            return i
    return None


def sentence_holding(intervals, start, end):
    """Index of the first interval holding all of [start, end), or None; a linear scan
    over every interval, in order."""
    for k, (lo, hi) in enumerate(intervals):
        if lo <= start and end <= hi:
            return k
    return None


# ---------------------------------------------------------------------------
# per-sentence NER window oracle: every sentence builds and encodes its own window

def sentence_window(flat, lo, hi, budget, max_len):
    """The NER window of the sentence flat[lo:hi], built for that sentence alone.

    Returns (symbols, offset of the sentence in them). Context is added one
    token at a time: up to half the budget on the left, the rest (and the odd
    token) on the right, then what one side could not use goes to the other,
    right first. The budget shrinks so that the window fits max_len.
    """
    quota = max(0, min(budget, max_len - (hi - lo)))
    start, end = lo, hi
    for _ in range(quota // 2):
        if start > 0:
            start -= 1
    for _ in range(quota - quota // 2):
        if end < len(flat):
            end += 1
    spare = quota - (lo - start) - (end - hi)
    while spare and end < len(flat):
        end += 1
        spare -= 1
    while spare and start > 0:
        start -= 1
        spare -= 1
    return list(flat[start:end]), lo - start


def predict_per_sentence(ner_model, re_model, views, predict_relations):
    """The end-to-end prediction with one NER window built and encoded per sentence.

    Each sentence of each view gets a fresh window from `sentence_window`,
    which ``ner_model.predict_mentions`` encodes on its own;
    ``predict_relations(re_model, view, k, mentions)`` classifies the pairs
    of sentence k. Returns (mentions, relations) in document order.
    """
    budget = ner_model.config.ner.context_window
    max_len = ner_model.config.encoder.max_len
    mentions, relations = [], []
    for view in views:
        examples = {ex.sent_id: ex
                    for ex in ner_model.prepare_view(view, with_labels=False)[0]}
        for k, sent in enumerate(view.sentences):
            found = []
            if sent.sent_id in examples:
                ex = examples[sent.sent_id]
                lo = view.sent_flat_start[k]
                symbols, offset = sentence_window(view.flat_surfaces, lo,
                                                  lo + len(view.tokens[k]), budget, max_len)
                own = dataclasses.replace(ex, windowed=dataclasses.replace(
                    ex.windowed, symbols=symbols, sent_offset=offset))
                found = ner_model.predict_mentions(own)
            mentions.extend(found)
            relations.extend(predict_relations(re_model, view, k, found))
    return mentions, relations


def unshared_windows(examples):
    """Copies of NER examples in which no two share a symbols list, so each encodes alone."""
    return [dataclasses.replace(ex, windowed=dataclasses.replace(
        ex.windowed, symbols=list(ex.windowed.symbols))) for ex in examples]


# ---------------------------------------------------------------------------
# optimizer oracle: Adam over every entry of every parameter on every step

class DenseAdam:
    """Adam that steps every entry of every parameter array on every step.

    ``step`` accepts the rows argument of the real optimizer and ignores it,
    so the oracle can stand in for it inside training. The arithmetic is the
    same per entry and in the same order, so agreement is bitwise.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {key: np.zeros(value.shape) for key, value in params.items()}
        self.v = {key: np.zeros(value.shape) for key, value in params.items()}

    def step(self, grads, rows=None):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for key in self.params:
            g = grads[key]
            self.m[key] = self.m[key] * self.beta1 + (1.0 - self.beta1) * g
            self.v[key] = self.v[key] * self.beta2 + (1.0 - self.beta2) * g * g
            self.params[key] -= (self.lr * (self.m[key] / b1c)
                                 / (np.sqrt(self.v[key] / b2c) + self.eps))


# ---------------------------------------------------------------------------
# encoder and relation oracles: every row through every block

def _layer_norm(z, gamma, beta, eps=1e-5):
    mu = z.mean(axis=1, keepdims=True)
    centered = z - mu
    var = (centered ** 2).mean(axis=1, keepdims=True)
    return gamma * (centered * (1.0 / np.sqrt(var + eps))) + beta


def forward_all_rows(encoder, symbols):
    """The encoder's output at every symbol, every block over every row.

    The encoder's forward arithmetic as it was before it took ``rows``, in
    the same order, so that agreement is bitwise. Only the symbol lookup is
    the encoder's own.
    """
    n = len(symbols)
    p = encoder.params
    x = np.concatenate([p["tok_emb"], p["special_emb"]])[encoder._rows(symbols)]
    x = x + p["pos_emb"][:n]
    scale = 1.0 / math.sqrt(encoder.dim)
    for b in range(encoder.blocks):
        q = x @ p[f"b{b}.wq"] + p[f"b{b}.bq"]
        k = x @ p[f"b{b}.wk"] + p[f"b{b}.bk"]
        v = x @ p[f"b{b}.wv"] + p[f"b{b}.bv"]
        scores = (q @ k.T) * scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        r1 = x + ((att @ v) @ p[f"b{b}.wo"] + p[f"b{b}.bo"])
        h = _layer_norm(r1, p[f"b{b}.ln1_g"], p[f"b{b}.ln1_b"])
        f = np.maximum(h @ p[f"b{b}.w1"] + p[f"b{b}.b1"], 0.0) @ p[f"b{b}.w2"] + p[f"b{b}.b2"]
        x = _layer_norm(h + f, p[f"b{b}.ln2_g"], p[f"b{b}.ln2_b"])
    return x


def classify_full(model, instance):
    """(label index, probability) of a relation instance from a full encoding.

    Every symbol goes through every block, the model's own pooling builds the
    representation, and the head's two layers and softmax are written out.
    """
    rep = model.build_representation(model.encoder.encode(instance.symbols), instance)
    head = model.head
    logits = np.maximum(rep @ head["re.w1"] + head["re.b1"], 0.0) @ head["re.w2"] + head["re.b2"]
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    pick = int(probs.argmax())
    return pick, float(probs[pick])


# ---------------------------------------------------------------------------
# NER training oracle: one forward and one backward per example

# How far the real NER training, which backpropagates once per window over
# the summed gradients of the sentences in it, may drift from this oracle:
# the gradients of one batch and the per-epoch loss curve (relative), and the
# parameters after a few epochs (absolute). Measured on micro: 6.7e-16,
# 3e-16 and 1.0e-12.
NER_GRAD_TOLERANCE = 1e-12
NER_CURVE_TOLERANCE = 1e-12
NER_PARAM_TOLERANCE = 1e-10


def ner_loss_and_grads_per_example(model, batch):
    """``NerModel.loss_and_grads`` with every example encoded and backpropagated alone.

    Examples run in batch order, each with its own forward pass, its own
    output gradient and its own encoder backward, so no two sentences'
    gradients meet before the encoder's parameter gradients.
    """
    grads = model.zero_grads()
    total_spans = sum(len(ex.candidates) for ex in batch)
    if total_spans == 0:
        return 0.0, grads
    d = model.encoder.dim
    head = model.head
    loss = 0.0
    for ex in batch:
        if not ex.candidates:
            continue
        h, cache = model.encoder.forward(ex.windowed.symbols)
        starts, ends, widths = ex.span_index
        reps = np.concatenate([h[starts], h[ends], head["ner.width_emb"][widths]], axis=1)
        logits = reps @ head["ner.w"] + head["ner.b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        rows = np.arange(len(ex.candidates))
        loss += float(-np.log(probs[rows, ex.labels] + 1e-300).sum())
        dlogits = probs
        dlogits[rows, ex.labels] -= 1.0
        dlogits /= total_spans
        grads["ner.w"] += reps.T @ dlogits
        grads["ner.b"] += dlogits.sum(axis=0)
        dreps = dlogits @ head["ner.w"].T
        dh = np.zeros_like(h)
        np.add.at(dh, starts, dreps[:, :d])
        np.add.at(dh, ends, dreps[:, d:2 * d])
        np.add.at(grads["ner.width_emb"], widths, dreps[:, 2 * d:])
        model.encoder.backward(cache, dh, grads)
    return loss / total_spans, grads


# ---------------------------------------------------------------------------
# RE training oracle: every block over every row

# How far the real RE training, which runs the last block's query side only
# at the rows the head reads, may drift from this oracle: the gradients of
# one batch (absolute), the per-epoch loss curve (relative) and the
# parameters after training (absolute). Measured on micro at seeds 0, 1 and
# 3 over 10 epochs: 4.4e-16, 1.9e-15 and 5.9e-12. The oracle reproduces the
# every-row training step bitwise, curve and parameters alike.
RE_GRAD_TOLERANCE = 1e-12
RE_CURVE_TOLERANCE = 1e-12
RE_PARAM_TOLERANCE = 1e-10


def re_loss_and_grads_every_row(model, batch):
    """``RelationModel.loss_and_grads`` with every block run over every row.

    Each instance gets the encoder's forward and backward over all of its
    symbols; the representation is pooled from the full encoding, and the
    head's two layers, softmax and cross-entropy are written out.
    """
    grads = model.zero_grads()
    if not batch:
        return 0.0, grads
    d = model.encoder.dim
    head = model.head
    scale = 1.0 / len(batch)
    loss = 0.0
    for inst in batch:
        h, cache = model.encoder.forward(inst.symbols)
        rep = model.build_representation(h, inst)
        u = rep @ head["re.w1"] + head["re.b1"]
        z = np.maximum(u, 0.0)
        logits = z @ head["re.w2"] + head["re.b2"]
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        loss += float(-np.log(probs[inst.label] + 1e-300))
        dlogits = probs.copy()
        dlogits[inst.label] -= 1.0
        dlogits *= scale
        grads["re.w2"] += np.outer(z, dlogits)
        grads["re.b2"] += dlogits
        du = (head["re.w2"] @ dlogits) * (u > 0.0)
        grads["re.w1"] += np.outer(rep, du)
        grads["re.b1"] += du
        drep = head["re.w1"] @ du
        dh = np.zeros_like(h)
        for k, pos in enumerate([inst.rows[piece] for piece in inst.pieces]):
            for p in pos:
                dh[p] += drep[k * d:(k + 1) * d] / len(pos)
        model.encoder.backward(cache, dh, grads)
    return loss * scale, grads



# ---------------------------------------------------------------------------
# prediction oracle: one object per candidate span, pooled pieces through np.mean

def classify_pooled_by_mean(model, instance):
    """(label index, probability) of a relation instance, each piece pooled with ``np.mean``.

    The instance is encoded at the sorted positions its pieces pool, as
    relation prediction encodes it; the head's two layers and softmax are
    written out.
    """
    segments = [instance.rows[piece] for piece in instance.pieces]
    rows = sorted(set().union(*segments))
    h = model.encoder.encode(instance.symbols, rows)
    rep = np.concatenate([h[[rows.index(p) for p in pos]].mean(axis=0) if len(pos)
                          else np.zeros(h.shape[1]) for pos in segments])
    head = model.head
    z = np.maximum(rep @ head["re.w1"] + head["re.b1"], 0.0)
    logits = z @ head["re.w2"] + head["re.b2"]
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
    pick = int(probs.argmax())
    return pick, float(probs[pick])


def predict_view_per_candidate(ner_model, re_model, view, package):
    """One document's end-to-end prediction through per-candidate objects.

    The object path prediction took before its span and pair layer worked on
    arrays, kept as the reference it must equal bitwise. NER runs
    ``ner_model.prepare_view``, encodes each distinct window once, calls
    ``ner_model.classify_spans`` on every example and builds a mention from
    every non-null (candidate, label, prob) triple. Each sentence's pairs
    come from ``package.relation.prediction_instances`` and are classified by
    `classify_pooled_by_mean`. ``package`` is the chemspan package, handed in
    so that this file imports none of it. Returns (mentions, relations) in
    document order.
    """
    encodings = {}  # windows hash and compare by identity
    mentions = []
    for ex in ner_model.prepare_view(view, with_labels=False)[0]:
        window = ex.windowed.symbols
        if window not in encodings:
            encodings[window] = ner_model.encoder.encode(window)
        for candidate, label, prob in ner_model.classify_spans(ex, encodings[window]):
            if label != "null":
                start, end = candidate.token_start, candidate.token_end
                mentions.append(package.SpanMention(
                    ex.doc_id, ex.sent_id, start, end, label,
                    ex.token_chars[start][0], ex.token_chars[end][1], prob))
    relations = []
    for k, sent in enumerate(view.sentences):
        found = [m for m in mentions if m.sent_id == sent.sent_id]
        for inst in package.relation.prediction_instances(re_model, view, k, found):
            pick, prob = classify_pooled_by_mean(re_model, inst)
            if package.RELATION_LABELS[pick] != "null":
                relations.append(package.RelationPrediction(
                    inst.doc_id, inst.sent_id, inst.subject, inst.object,
                    package.RELATION_LABELS[pick], prob))
    return mentions, relations


# ---------------------------------------------------------------------------
# NER scatter oracle: every span's boundary gradient added by np.add.at

def ner_loss_and_grads_add_at(model, batch):
    """``NerModel.loss_and_grads`` with each example scattering through ``np.add.at``.

    The body the model had before its scatters became one ``np.bincount``
    each, in the same order, so that agreement is bitwise: windows in order
    of first appearance, one forward and one backward each, and every
    example's start, end and width gradients added with three ``np.add.at``
    calls into the window's output gradient and the width embeddings.
    """
    grads = model.zero_grads()
    total_spans = sum(len(ex.candidates) for ex in batch)
    if total_spans == 0:
        return 0.0, grads
    windows = {}  # windows hash and compare by identity
    for ex in batch:
        if len(ex.candidates):
            windows.setdefault(ex.windowed.symbols, []).append(ex)
    loss = 0.0
    for window, examples in windows.items():
        h, cache = model.encoder.forward(window)
        dh = np.zeros_like(h)
        for ex in examples:
            reps, probs = model._probs(ex, h)
            rows = np.arange(len(ex.candidates))
            loss += float(-np.log(probs[rows, ex.labels] + 1e-300).sum())
            dlogits = probs
            dlogits[rows, ex.labels] -= 1.0
            dlogits /= total_spans
            grads["ner.w"] += reps.T @ dlogits
            grads["ner.b"] += dlogits.sum(axis=0)
            dreps = dlogits @ model.head["ner.w"].T
            d = model.encoder.dim
            starts, ends, widths = ex.span_index
            np.add.at(dh, starts, dreps[:, :d])
            np.add.at(dh, ends, dreps[:, d:2 * d])
            np.add.at(grads["ner.width_emb"], widths, dreps[:, 2 * d:])
        model.encoder.backward(cache, dh, grads)
    return loss / total_spans, grads
