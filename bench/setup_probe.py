import time

_T0 = time.perf_counter()

import lexplain  # noqa: E402
import lexplain.cli  # noqa: E402

_T1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Set-up as a user of lexplain pays it in a fresh interpreter: import the
# package (the CLI pulls in requests), then read and parse every rules file
# given and the facts file (the last argument), and merge the KBs.
# run.py starts this script with PYTHONPATH set to the checkout's src/.
*_rules, _facts = sys.argv[1:]
_kbs = [lexplain.parse_rules(Path(p).read_text(encoding="utf-8")) for p in _rules]
lexplain.kb.merge(_kbs)
lexplain.parse_facts(Path(_facts).read_text(encoding="utf-8"))
_T2 = time.perf_counter()

print(json.dumps({"import_s": _T1 - _T0, "load_s": _T2 - _T1}))
