"""A deterministic synthetic corpus small enough to overfit in seconds.

Ten documents, five sentences each: a title plus four body sentences drawn
from templates with one chemical, one gene, and an unambiguous cue phrase
per relation class. Two documents end with a transporter sentence whose
gene name contains a nested chemical mention, so overlapping spans are part
of the training distribution and not just a unit-test curiosity. Null pairs
come from co-occurrence sentences without an asserted relation and from a
non-evaluated CPR:2 template.

The builder is pure arithmetic (no RNG), so the shipped TSV files under
``data/micro`` must match it byte for byte; a test regenerates and compares.
"""

from importlib import resources
from typing import List, Tuple

from .corpus import Document, GoldEntity, GoldRelation, join_title_abstract, load_corpus_dir

CHEMICALS = (
    "Aspirin", "Caffeine", "Morphine", "Nicotine", "Dopamine",
    "Estradiol", "Ketamine", "Ibuprofen", "Naloxone", "Riluzole",
)

GENES = (
    "COX2", "EGFR", "DRD2", "OPRM1", "CYP3A4",
    "ABCB1", "MAOA", "HTR2A", "INSR", "TP53",
)

# template key -> (words between chemical and gene, words after the gene,
#                  relation group or None, eval flag)
TEMPLATES = {
    "CPR:3": ("upregulates", "expression markedly.", "CPR:3", True),
    "CPR:4": ("inhibits", "activity strongly.", "CPR:4", True),
    "CPR:5": ("stimulates", "receptors directly.", "CPR:5", True),
    "CPR:6": ("blocks", "signaling outright.", "CPR:6", True),
    "CPR:9": ("is a substrate of", "enzymes.", "CPR:9", True),
    "null": ("was detected near", "in several tissues.", None, None),
    "CPR:2": ("binds", "with modest affinity.", "CPR:2", False),
}

_TEMPLATE_ORDER = ("CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9", "null", "CPR:2")

TRANSPORTER_SENTENCE = ("Contribution of the Na+-K+-2Cl- cotransporter NKCC1 "
                        "to Cl- secretion in rat OMCD.")
_TRANSPORTER_SLOTS = ((4, 3), (9, 3))  # (doc index, body-sentence index)


class _DocBuilder:
    def __init__(self, doc_id: str, title: str):
        self.doc_id = doc_id
        self.title = title
        self.body: List[str] = []
        self.entities: List[GoldEntity] = []
        self.relations: List[GoldRelation] = []

    def _base(self) -> int:
        offset = len(self.title) + 1
        for sentence in self.body:
            offset += len(sentence) + 1
        return offset

    def add_sentence(self, sentence: str,
                     spans: Tuple[Tuple[int, int, str], ...] = (),
                     relations: Tuple[Tuple[int, int, str, bool], ...] = ()) -> None:
        """Append a sentence; spans are sentence-local, relations index spans."""
        base = self._base()
        first_new = len(self.entities)
        for local_start, local_end, etype in spans:
            surface = sentence[local_start:local_end]
            self.entities.append(GoldEntity(
                f"T{len(self.entities) + 1}", etype,
                base + local_start, base + local_end, surface))
        for chem_idx, gene_idx, group, flag in relations:
            self.relations.append(GoldRelation(
                group, flag,
                self.entities[first_new + chem_idx].entity_id,
                self.entities[first_new + gene_idx].entity_id))
        self.body.append(sentence)

    def document(self) -> Document:
        abstract = " ".join(self.body)
        return Document(self.doc_id, self.title, abstract,
                        join_title_abstract(self.title, abstract),
                        tuple(self.entities), tuple(self.relations))


def _template_sentence(builder: _DocBuilder, key: str, chem: str, gene: str) -> None:
    mid, tail, group, flag = TEMPLATES[key]
    sentence = f"{chem} {mid} {gene} {tail}"
    gene_start = len(chem) + 1 + len(mid) + 1
    spans = ((0, len(chem), "CHEMICAL"),
             (gene_start, gene_start + len(gene), "GENE"))
    relations = ((0, 1, group, flag),) if group is not None else ()
    builder.add_sentence(sentence, spans, relations)


def _transporter_sentence(builder: _DocBuilder) -> None:
    s = TRANSPORTER_SENTENCE
    pump = "Na+-K+-2Cl- cotransporter"
    pump_start = s.index(pump)
    nested_start = s.index("Cl-", pump_start)            # inside the pump name
    nkcc_start = s.index("NKCC1")
    free_start = s.index("Cl-", pump_start + len(pump))  # the secreted chloride
    spans = (
        (free_start, free_start + 3, "CHEMICAL"),    # 0: free Cl-
        (nested_start, nested_start + 3, "CHEMICAL"),  # 1: nested Cl-
        (pump_start, pump_start + len(pump), "GENE"),  # 2: the pump
        (nkcc_start, nkcc_start + 5, "GENE"),          # 3: NKCC1
    )
    relations = ((0, 2, "CPR:9", True), (0, 3, "CPR:9", True))
    builder.add_sentence(s, spans, relations)


def build_micro_corpus() -> List[Document]:
    docs = []
    for d in range(10):
        builder = _DocBuilder(f"MICRO{d}",
                              f"Corpus profile {d} for interaction template study.")
        for j in range(4):
            if (d, j) in _TRANSPORTER_SLOTS:
                _transporter_sentence(builder)
            else:
                key = _TEMPLATE_ORDER[(d + j) % len(_TEMPLATE_ORDER)]
                _template_sentence(builder, key,
                                   CHEMICALS[(d + 3 * j) % len(CHEMICALS)],
                                   GENES[(d + 7 * j) % len(GENES)])
        docs.append(builder.document())
    return docs


def load_micro_corpus() -> List[Document]:
    """The shipped copy, through the ordinary corpus loader."""
    with resources.as_file(resources.files("chemspan").joinpath("data/micro")) as path:
        return load_corpus_dir(path)
