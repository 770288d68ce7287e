"""Locate the scparse sources of the checkout this benchmark lives in.

The benchmark always measures the code next to it, never an installed
copy, so `src/` of the checkout is put first on the import path.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def use_checkout_sources():
    src = ROOT / "src"
    if not (src / "scparse" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no scparse sources under {src}")
    sys.path.insert(0, str(src))
