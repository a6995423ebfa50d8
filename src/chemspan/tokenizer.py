"""Fine-grained tokenization with exact character offsets.

Tokens are maximal runs of Latin or Greek letters, maximal runs of ASCII
digits, or single non-whitespace characters. Splitting is offset-exact:
``text[t.char_start:t.char_end] == t.surface`` for every token, which is
what lets gold character annotations round-trip through the pipeline.
"""

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

# The digit class is pinned to 0-9 on purpose: \d would also match Unicode
# digits and silently change offsets. \s keeps Unicode whitespace semantics,
# so NBSP and friends separate tokens. The Greek ranges cover final sigma.
TOKEN_PATTERN = re.compile(r"[A-Za-zα-ωΑ-Ω]+|[0-9]+|[^\s]")


@dataclass(frozen=True)
class Token:
    index: int
    surface: str
    char_start: int
    char_end: int  # exclusive


def token_offsets(text: str, start: int = 0, end: Optional[int] = None
                  ) -> List[Tuple[int, int]]:
    """``(char_start, char_end)`` of each token of ``text[start:end]``, offsets into ``text``;
    the pattern has no anchors or lookarounds, so its matches are those on the slice."""
    return [m.span() for m in
            TOKEN_PATTERN.finditer(text, start, len(text) if end is None else end)]


def tokenize(text: str, start: int = 0, end: Optional[int] = None) -> List[Token]:
    """The tokens of `token_offsets` as `Token` objects, each with its surface."""
    return [Token(i, text[s:e], s, e) for i, (s, e) in enumerate(token_offsets(text, start, end))]


def tokenize_sentence(doc, sent) -> List[Token]:
    """Tokenize one sentence of a document, keeping document-absolute offsets.

    ``doc`` needs a ``text`` attribute and ``sent`` needs ``char_start`` /
    ``char_end`` within it; both the corpus dataclasses and plain stand-ins work.
    """
    return tokenize(doc.text, sent.char_start, sent.char_end)
