"""Seeded inputs for the benchmark workloads.

The abstracts are built from the shipped micro corpus's chemicals, genes and
sentence templates, so models trained on the micro corpus recognise most of
their mentions. The generator keeps its own record of where every sentence,
token and structural loss sits: record files and output checks use that
record, never the program's tokenizer, so a tokenizer or segmenter fault
shows up as a failed check instead of moving both sides of a comparison.
"""

import random
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from chemspan import Document, GoldEntity, GoldRelation
from chemspan.microcorpus import CHEMICALS, GENES, TEMPLATES, TRANSPORTER_SENTENCE

# The tokenization and sentence rules the package documents: maximal Latin or
# Greek letter runs, maximal ASCII digit runs, single other characters; a
# sentence ends at . ! or ? followed by whitespace and an uppercase letter or
# digit.
TOKEN = re.compile(r"[A-Za-zα-ωΑ-Ω]+|[0-9]+|[^\s]")
SENTENCE_END = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")

EVAL_GROUPS = ("CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9")
_EVAL_TEMPLATES = tuple(k for k, (_, _, group, flag) in TEMPLATES.items() if flag)

EntityKey = Tuple[str, int, int, str]
RelationKey = Tuple[str, int, int, int, int, str]

# Abstract shape: a title plus 23 body sentences. Every document has the same
# mix, so documents differ only in names, numbers, templates and order: 9 are
# entity-free (~40%), the rest 1-2 chemicals x 1-2 genes or the nested
# transporter sentence.
BODY_MIX = (("filler", 9), ((1, 1), 7), ((2, 1), 2), ((1, 2), 2), ((2, 2), 1),
            ("transporter", 2))
# Share of documents given each structural-loss injection: a chemical that
# ends mid-token, an entity cut by a sentence boundary (the segmenter does not
# know abbreviations), and a relation whose arguments sit in adjacent
# sentences. Each replaces one body sentence.
INJECTIONS = (("mid-token", 0.08), ("cross-sentence", 0.08), ("cross-pair", 0.1))

FILLERS = (
    "Samples from {a} patients were collected at baseline and after {b} weeks of follow-up.",
    "The cohort included {a} adults aged {b} to {c} years with stable disease.",
    "All measurements were repeated in {a} independent experiments under identical conditions.",
    "These findings suggest a broader role for the pathway in tissue homeostasis and repair.",
    "Further studies in larger populations are needed to confirm the observed effects.",
    "Tissue sections were stained and scored by {a} observers blinded to treatment.",
    "Expression was quantified relative to {a} housekeeping transcripts in each batch.",
)


def sentence_tokens(text: str) -> List[List[Tuple[int, int]]]:
    """Document-absolute (start, end) token offsets, one list per sentence."""
    out = []
    prev = 0
    for cut in [m.end() for m in SENTENCE_END.finditer(text)] + [len(text)]:
        tokens = [(m.start(), m.end()) for m in TOKEN.finditer(text, prev, cut)]
        if tokens:
            out.append(tokens)
        prev = cut
    return out


def locate(layout, start: int, end: int):
    """(sentence, first token, last token) of a character span, or None."""
    for k, tokens in enumerate(layout):
        if not tokens or start < tokens[0][0] or end > tokens[-1][1]:
            continue
        firsts = [i for i, (s, _) in enumerate(tokens) if s == start]
        lasts = [i for i, (_, e) in enumerate(tokens) if e == end]
        if firsts and lasts and firsts[0] <= lasts[0]:
            return k, firsts[0], lasts[0]
        return None
    return None


def gold_keys(docs: Sequence[Document]) -> Tuple[Set[EntityKey], Set[RelationKey]]:
    """Character-offset keys of every gold entity and evaluated gold relation."""
    entities, relations = set(), set()
    for doc in docs:
        by_id = {e.entity_id: e for e in doc.entities}
        entities.update((doc.doc_id, e.char_start, e.char_end, e.etype) for e in doc.entities)
        for r in doc.relations:
            if r.eval_flag:
                c, g = by_id[r.arg1], by_id[r.arg2]
                relations.add((doc.doc_id, c.char_start, c.char_end,
                               g.char_start, g.char_end, r.cpr_group))
    return entities, relations


@dataclass
class GeneratedCorpus:
    docs: List[Document]
    lost_entities: int       # injected: mid-token or cut by a sentence boundary
    lost_relations: int      # evaluated relations through a lost entity or across sentences
    lost_relation_keys: Set[RelationKey]


class _DocBuilder:
    """Accumulates sentences of one document with sentence-local spans."""

    def __init__(self, doc_id: str, title: str):
        self.doc_id = doc_id
        self.units = [title]
        self.entities: List[GoldEntity] = []
        self.relations: List[GoldRelation] = []
        self.lost_ids: Set[str] = set()
        self.lost_relations = 0

    def add(self, units: Sequence[str], spans, relations=(), lost=()) -> None:
        """Append sentences; spans index the units joined by single spaces.

        ``relations`` hold (chemical span, gene span, group, eval flag);
        ``lost`` names spans that no token span can represent.
        """
        base = sum(len(u) + 1 for u in self.units)
        block = " ".join(units)
        unit_of = []
        offset = 0
        for u, unit in enumerate(units):
            unit_of.append((offset, offset + len(unit), u))
            offset += len(unit) + 1
        ids = []
        span_unit = []
        for start, end, etype in spans:
            entity_id = f"T{len(self.entities) + 1}"
            self.entities.append(GoldEntity(entity_id, etype, base + start, base + end,
                                            block[start:end]))
            ids.append(entity_id)
            inside = [u for s, e, u in unit_of if s <= start and end <= e]
            span_unit.append(inside[0] if inside else None)
        for i in lost:
            self.lost_ids.add(ids[i])
        for c, g, group, flag in relations:
            self.relations.append(GoldRelation(group, flag, ids[c], ids[g]))
            if flag and (c in lost or g in lost or span_unit[c] != span_unit[g]):
                self.lost_relations += 1
        self.units.extend(units)

    def document(self) -> Document:
        title, body = self.units[0], " ".join(self.units[1:])
        return Document(self.doc_id, title, body, title + " " + body,
                        tuple(self.entities), tuple(self.relations))


class _NamePool:
    """Draws names in shuffled rounds, so a document uses each name about
    equally often; names within one draw are distinct."""

    def __init__(self, rng, names):
        self.rng = rng
        self.names = names
        self.pool: List[str] = []

    def take(self, k: int) -> List[str]:
        out: List[str] = []
        while len(out) < k:
            if not self.pool:
                self.pool = list(self.names)
                self.rng.shuffle(self.pool)
            name = self.pool.pop()
            if name in out:
                self.pool.insert(0, name)
            else:
                out.append(name)
        return out


def _names_sentence(chems, genes, key):
    mid, tail, group, flag = TEMPLATES[key]
    n_chem = len(chems)
    text = f"{' and '.join(chems)} {mid} {' and '.join(genes)} {tail}"
    spans, pos = [], 0
    for name, etype in [(c, "CHEMICAL") for c in chems] + [(g, "GENE") for g in genes]:
        start = text.index(name, pos)
        spans.append((start, start + len(name), etype))
        pos = start + len(name)
    relations = [(c, n_chem + g, group, flag) for c in range(n_chem) for g in range(len(genes))
                 if group is not None]
    return [text], spans, relations


def _transporter_sentence():
    s = TRANSPORTER_SENTENCE
    pump = "Na+-K+-2Cl- cotransporter"
    pump_start = s.index(pump)
    nested = s.index("Cl-", pump_start)
    nkcc = s.index("NKCC1")
    free = s.index("Cl-", pump_start + len(pump))
    spans = [(free, free + 3, "CHEMICAL"), (nested, nested + 3, "CHEMICAL"),
             (pump_start, pump_start + len(pump), "GENE"), (nkcc, nkcc + 5, "GENE")]
    return [s], spans, [(0, 2, "CPR:9", True), (0, 3, "CPR:9", True)]


def _filler(rng):
    return rng.choice(FILLERS).format(a=rng.randint(3, 90), b=rng.randint(2, 52),
                                      c=rng.randint(53, 90))


def generate_abstracts(seed: int, n_docs: int) -> GeneratedCorpus:
    """ChemProt-length abstracts (24 sentences, ~280 tokens) for one seed."""
    rng = random.Random(seed)
    injected = {d: [] for d in range(n_docs)}
    for kind, share in INJECTIONS:
        for d in rng.sample(range(n_docs), round(share * n_docs)):
            injected[d].append(kind)
    template_keys = list(TEMPLATES)
    docs = []
    lost_entities = lost_relations = 0
    for d in range(n_docs):
        b = _DocBuilder(f"GEN{seed}-{d}",
                        f"Generated abstract {d} on chemical and protein interactions.")
        slots = [kind for kind, count in BODY_MIX for _ in range(count)]
        rng.shuffle(slots)
        for kind, at in zip(injected[d], rng.sample(range(len(slots)), len(injected[d]))):
            slots[at] = kind
        keys = template_keys * 2
        rng.shuffle(keys)
        chemicals, genes = _NamePool(rng, CHEMICALS), _NamePool(rng, GENES)
        for slot in slots:
            if slot == "filler":
                b.add([_filler(rng)], [])
            elif slot == "transporter":
                b.add(*_transporter_sentence())
            elif isinstance(slot, tuple):
                n_chem, n_gene = slot
                b.add(*_names_sentence(chemicals.take(n_chem), genes.take(n_gene), keys.pop()))
            else:
                key = rng.choice(_EVAL_TEMPLATES)
                mid, tail, group, _ = TEMPLATES[key]
                (chem,), (gene,) = chemicals.take(1), genes.take(1)
                if slot == "mid-token":
                    text = f"{chem}ergic tone {mid} {gene} {tail}"
                    g = text.index(gene, len(chem))
                    b.add([text], [(0, len(chem), "CHEMICAL"), (g, g + len(gene), "GENE")],
                          [(0, 1, group, True)], lost=(0,))
                elif slot == "cross-sentence":
                    units = ["St.", f"John wort {mid} {gene} {tail}"]
                    block = " ".join(units)
                    g = block.index(gene)
                    b.add(units, [(0, len("St. John wort"), "CHEMICAL"), (g, g + len(gene), "GENE")],
                          [(0, 1, group, True)], lost=(0,))
                else:
                    units = [f"{chem} was administered daily.", f"Treatment {mid} {gene} {tail}"]
                    block = " ".join(units)
                    g = block.index(gene, len(units[0]))
                    b.add(units, [(0, len(chem), "CHEMICAL"), (g, g + len(gene), "GENE")],
                          [(0, 1, group, True)])
        doc = b.document()
        docs.append(doc)
        lost_entities += len(b.lost_ids)
        lost_relations += b.lost_relations
    return GeneratedCorpus(docs, lost_entities, lost_relations, _lost_relation_keys(docs))


def _lost_relation_keys(docs) -> Set[RelationKey]:
    """Evaluated relations no sentence-level token-span system can predict."""
    out = set()
    for doc in docs:
        by_id = {e.entity_id: e for e in doc.entities}
        layout = sentence_tokens(doc.text)
        for r in doc.relations:
            if not r.eval_flag:
                continue
            c, g = by_id[r.arg1], by_id[r.arg2]
            key = (doc.doc_id, c.char_start, c.char_end, g.char_start, g.char_end, r.cpr_group)
            lc = locate(layout, c.char_start, c.char_end)
            lg = locate(layout, g.char_start, g.char_end)
            if lc is None or lg is None or lc[0] != lg[0]:
                out.add(key)
    return out


# ---------------------------------------------------------------------------
# record files


def write_corpus(docs: Sequence[Document], directory: Path) -> None:
    """The native three-file layout the CLI reads."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "abstracts.tsv", "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(f"{doc.doc_id}\t{doc.title}\t{doc.abstract}\n")
    with open(directory / "entities.tsv", "w", encoding="utf-8") as fh:
        for doc in docs:
            for e in doc.entities:
                fh.write(f"{doc.doc_id}\t{e.entity_id}\t{e.etype}\t{e.char_start}\t"
                         f"{e.char_end}\t{e.surface}\n")
    with open(directory / "relations.tsv", "w", encoding="utf-8") as fh:
        for doc in docs:
            for r in doc.relations:
                fh.write(f"{doc.doc_id}\t{r.cpr_group}\t{'Y' if r.eval_flag else 'N'}\t"
                         f"{r.arg1}\t{r.arg2}\n")


def write_predictions(layouts: Dict[str, list], entities, relations,
                      ents_path: Path, rels_path: Path) -> None:
    """Entity and relation record files in the CLI's documented formats.

    ``entities`` holds (doc_id, char_start, char_end, type, prob) and
    ``relations`` holds (doc_id, s0, s1, o0, o1, label, prob). Entity records
    carry sentence-local token indices, relation records document-level ones.
    """
    with open(ents_path, "w", encoding="utf-8") as fh:
        for doc_id, start, end, etype, prob in entities:
            k, t0, t1 = locate(layouts[doc_id], start, end)
            fh.write(f"{doc_id}\t{k}\t{t0}\t{t1}\t{etype}\t{prob:.6f}\n")
    flat_index = {}
    with open(rels_path, "w", encoding="utf-8") as fh:
        for doc_id, s0, s1, o0, o1, label, prob in relations:
            if doc_id not in flat_index:
                flat = [t for sent in layouts[doc_id] for t in sent]
                flat_index[doc_id] = ({s: i for i, (s, _) in enumerate(flat)},
                                      {e: i for i, (_, e) in enumerate(flat)})
            first, last = flat_index[doc_id]
            fh.write(f"{doc_id}\t{first[s0]}\t{last[s1]}\t{first[o0]}\t{last[o1]}\t{label}\t"
                     f"{prob:.6f}\t{s0}\t{s1}\t{o0}\t{o1}\n")


# ---------------------------------------------------------------------------
# input properties


def describe(docs: Sequence[Document], layouts: Dict[str, list]) -> dict:
    """The input properties a performance claim has to cite."""
    tokens_per_doc, mentions, pairs = [], [], []
    entities = lost = 0
    for doc in docs:
        layout = layouts[doc.doc_id]
        tokens_per_doc.append(sum(len(s) for s in layout))
        per_sentence = [[0, 0] for _ in layout]
        for e in doc.entities:
            entities += 1
            where = locate(layout, e.char_start, e.char_end)
            if where is None:
                lost += 1
            else:
                per_sentence[where[0]][e.etype == "GENE"] += 1
        mentions.extend(c + g for c, g in per_sentence)
        pairs.extend(c * g for c, g in per_sentence)
    return {
        "docs": len(docs),
        "tokens_per_doc": statistics.fmean(tokens_per_doc),
        "sentences": len(mentions),
        "sentences_per_doc": len(mentions) / len(docs),
        "mentions_per_sentence": statistics.fmean(mentions),
        "pairs_per_sentence": statistics.fmean(pairs),
        "entity_free_sentence_share": sum(1 for m in mentions if m == 0) / len(mentions),
        "entities": entities,
        "unrecoverable_entity_share": lost / entities if entities else 0.0,
    }
