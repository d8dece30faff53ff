#!/usr/bin/env bash
# Lint-artifact guard over pmc-lint's machine-readable reports, the
# check_bench_artifacts.sh counterpart for the lint stage.
#
# SARIF artifacts (*.sarif) must (a) parse as JSON, (b) be a SARIF 2.1.0
# log with exactly one run whose tool driver is pmc-lint, (c) declare
# exactly the live rule set D1, D2, D3, D10 (the retired D4/D6/D7/D8/D9
# are enforced by types and compile-fail tests, and D5 has no hash
# iteration left to scan, so a driver still declaring them is stale), (d) give every result a known ruleId, a message, and a
# file:line location, and (e) contain no "error"-level result — an
# unsuppressed or stale diagnostic in a committed artifact means the tree
# and its lint ledger disagree. Suppressed findings must carry an inSource
# suppression justification.
#
# JSON reports (*.json, pmc-lint --json output) must parse, identify the
# tool, and count zero unsuppressed diagnostics.
#
#   ./tools/check_lint_artifacts.sh [artifact ...]
#
# With no arguments, checks the committed pmc-lint.sarif at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

artifacts=("$@")
if [ "${#artifacts[@]}" -eq 0 ]; then
  if [ ! -f pmc-lint.sarif ]; then
    echo "check_lint_artifacts: no committed pmc-lint.sarif at the repo root" >&2
    exit 1
  fi
  artifacts=(pmc-lint.sarif)
fi

python3 - "${artifacts[@]}" <<'EOF'
import json
import sys

RULE_IDS = ["D1", "D2", "D3", "D10"]
failures = 0


def fail(path, msg):
    global failures
    failures += 1
    print(f"check_lint_artifacts: {path}: {msg}", file=sys.stderr)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")
        return None


def check_sarif(path, doc):
    if doc.get("version") != "2.1.0":
        fail(path, f"SARIF version is {doc.get('version')!r}, want '2.1.0'")
    runs = doc.get("runs")
    if not isinstance(runs, list) or len(runs) != 1:
        fail(path, "'runs' must be a list with exactly one run")
        return
    run = runs[0]
    driver = run.get("tool", {}).get("driver", {})
    if driver.get("name") != "pmc-lint":
        fail(path, f"tool driver is {driver.get('name')!r}, want 'pmc-lint'")
    declared = {r.get("id") for r in driver.get("rules", [])}
    missing = [r for r in RULE_IDS if r not in declared]
    if missing:
        fail(path, f"driver missing rule(s): {', '.join(missing)}")
    extra = sorted(r for r in declared if r not in RULE_IDS)
    if extra:
        fail(path, f"driver declares retired/unknown rule(s): "
                   f"{', '.join(map(str, extra))}")
    results = run.get("results")
    if not isinstance(results, list):
        fail(path, "'results' must be a list (empty is fine)")
        return
    errors = 0
    for i, res in enumerate(results):
        rule = res.get("ruleId")
        if rule not in declared:
            fail(path, f"result {i}: ruleId {rule!r} not declared by driver")
        if not res.get("message", {}).get("text"):
            fail(path, f"result {i}: missing message text")
        locs = res.get("locations", [])
        phys = locs[0].get("physicalLocation", {}) if locs else {}
        if not phys.get("artifactLocation", {}).get("uri") or \
                not phys.get("region", {}).get("startLine"):
            fail(path, f"result {i}: missing file:line location")
        level = res.get("level")
        if level == "error":
            errors += 1
        elif level == "note":
            suppressed = any(s.get("kind") == "inSource" and
                             s.get("justification")
                             for s in res.get("suppressions", []))
            if not suppressed:
                fail(path, f"result {i}: note-level finding carries no "
                           f"inSource justification")
        else:
            fail(path, f"result {i}: unexpected level {level!r}")
    if errors:
        fail(path, f"{errors} unsuppressed/stale finding(s) — the tree and "
                   f"its lint ledger disagree; fix or justify, then "
                   f"regenerate the artifact")
    return f"{len(results)} result(s), {len(declared)} rule(s)"


def check_report(path, doc):
    if doc.get("tool") != "pmc-lint":
        fail(path, f"tool is {doc.get('tool')!r}, want 'pmc-lint'")
    for key in ("files_scanned", "total", "suppressed", "unsuppressed",
                "diagnostics"):
        if key not in doc:
            fail(path, f"missing top-level key '{key}'")
    if not isinstance(doc.get("diagnostics"), list):
        fail(path, "'diagnostics' must be a list")
    if doc.get("unsuppressed", 0) != 0:
        fail(path, f"{doc.get('unsuppressed')} unsuppressed diagnostic(s) "
                   f"in the report")
    return (f"{doc.get('files_scanned')} files, "
            f"{doc.get('suppressed')} suppressed")


for path in sys.argv[1:]:
    doc = load(path)
    if doc is None:
        continue
    before = failures
    if path.endswith(".sarif"):
        summary = check_sarif(path, doc)
    else:
        summary = check_report(path, doc)
    if failures == before:
        print(f"check_lint_artifacts: {path}: OK ({summary})")

sys.exit(1 if failures else 0)
EOF
