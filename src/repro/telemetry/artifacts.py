"""Where runs drop their artifacts: one ``REPRO_ARTIFACT_DIR`` root.

Benches, tests and the fuzz corpus each write files of one *kind*
(``fastpath``, ``audit``, ``fuzz``, ...) that CI uploads per kind. With
``REPRO_ARTIFACT_DIR`` set they all land under ``<root>/<kind>/``;
unset, each caller keeps its own default (benches write to the working
directory, tests write nothing).
"""

from __future__ import annotations

import os
from typing import Optional

#: The one environment variable naming the artifact root.
ARTIFACT_ENV = "REPRO_ARTIFACT_DIR"


def artifact_dir(kind: str, default: Optional[str] = None) -> Optional[str]:
    """The directory for artifacts of *kind*, created on demand:
    ``$REPRO_ARTIFACT_DIR/<kind>`` when the variable is set, else
    *default* (None: write nothing)."""
    root = os.environ.get(ARTIFACT_ENV)
    path = os.path.join(root, kind) if root else default
    if path is not None:
        os.makedirs(path, exist_ok=True)
    return path
