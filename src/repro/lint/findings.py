"""The unit of lint output: one :class:`Finding` per rule violation.

Findings are plain data — path, position, rule code, message, and the
stripped source line (``snippet``).  :func:`sort_key` is the canonical
ordering (path, line, column, code) every reporter uses, so text and
JSON output are byte-stable across runs, worker counts, and filesystem
iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["Finding", "sort_key"]


@dataclass
class Finding:
    """One rule violation at one source position."""

    path: str
    line: int
    col: int
    code: str
    message: str
    snippet: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        """The one-line text form: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    """Canonical finding order: path, then position, then rule code."""
    return (finding.path, finding.line, finding.col, finding.code)
