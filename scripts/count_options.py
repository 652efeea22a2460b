"""Count the process-wide options declared in ``src/repro/config.py``.

Prints the number of annotated fields of ``Config`` and the number of
``REPRO_*`` rows of ``_ENV_FIELDS``.  The module source is parsed with
:mod:`ast` only, so this runs without numpy and on any revision::

    python scripts/count_options.py src/repro/config.py
    git show REV:src/repro/config.py | python scripts/count_options.py
"""

from __future__ import annotations

import ast
import sys
from typing import Tuple


def count_options(source: str) -> Tuple[int, int]:
    """``(Config fields, _ENV_FIELDS rows)`` of a ``config.py`` source."""
    fields = env_rows = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == "Config":
            fields = sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "_ENV_FIELDS"
                      for t in node.targets)
              and isinstance(node.value, ast.Tuple)):
            env_rows = len(node.value.elts)
    return fields, env_rows


def main(argv) -> int:
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as fh:
            source = fh.read()
    else:
        source = sys.stdin.read()
    fields, env_rows = count_options(source)
    print(f"Config fields: {fields}, REPRO_* variables: {env_rows}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
