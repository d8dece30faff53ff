#!/usr/bin/env python3
"""Token check of the determinism rules D1-D3 (DESIGN.md section 7).

  D1  no #include <unordered_map> / <unordered_set> on the message path
      (src/runtime, src/matching, src/coloring, src/service).
  D2  no hidden entropy anywhere in src/: rand, srand, time(),
      std::random_device, std::chrono::system_clock.
  D3  no memcpy / reinterpret_cast outside src/runtime/serialize.{hpp,cpp}.

Each file is tokenized after comments and string/char literals (raw strings
included) are blanked. Member calls (engine.time()), names qualified by a
namespace, class or template other than std (foo::time()) and declarations
(double time()) are not calls of the banned functions; ::time() is. The run
first checks the fixtures in tools/determinism_fixtures/ against their
expected hits, so a broken tokenizer cannot pass by finding nothing, then
checks every src/**/*.{cpp,hpp}. Exit status 1 names each hit as
file:line: [rule].

    python3 tools/check_determinism_rules.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tools" / "determinism_fixtures"

# Each fixture is checked as if it lived at the given src/ path, which sets
# the rule scope, and must give exactly the listed (line, rule) hits.
FIXTURE_CASES = [
    ("d1_violation.cpp", "coloring/d1.cpp", {(6, "D1"), (8, "D1")}),
    ("d1_clean.cpp", "graph/d1.cpp", set()),
    ("d1_clean.cpp", "service/d1.cpp", {(5, "D1")}),
    ("d2_violation.cpp", "support/d2.cpp",
     {(9, "D2"), (10, "D2"), (11, "D2"), (12, "D2"), (13, "D2"), (18, "D2")}),
    ("d2_clean.cpp", "support/d2.cpp", set()),
    ("d3_violation.cpp", "matching/d3.cpp", {(14, "D3"), (19, "D3")}),
    ("d3_violation.cpp", "runtime/serialize.cpp", set()),
    ("d3_clean.cpp", "matching/d3.cpp", set()),
]

MESSAGE = {
    "D1": "hash-container include on the message path; key per-message "
          "state by neighbour index or local id in flat arrays",
    "D2": "hidden entropy; randomness goes through pmc::Rng, wall time "
          "through WallTimer (steady_clock)",
    "D3": "raw byte copy or type punning; wire traffic goes through the "
          "serialize.hpp frame codec",
}

LITERAL = re.compile(r"""
    //[^\n]*
  | /\*.*?\*/
  | (?<!\w)(?:u8|[uUL])?R"(?P<delim>[^()\\\s]{0,16})\(.*?\)(?P=delim)"
  | (?<![\w.])\d[\w'.]*            # number: a digit separator opens no char
  | "(?:\\.|[^"\\\n])*"
  | '(?:\\.|[^'\\\n])*'
""", re.S | re.X)
TOKEN = re.compile(r"[A-Za-z_]\w*|\d[\w'.]*|::|->|\S")
IDENT = re.compile(r"[A-Za-z_]\w*")
CALL_WORDS = {"return", "co_return", "case", "throw"}


def blank(match):
    text = match.group()
    return text if text[0].isdigit() else re.sub(r"[^\n]", " ", text)


def tokens(source):
    code = LITERAL.sub(blank, source)
    line, pos = 1, 0
    for m in TOKEN.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        yield m.group(), line


def check(source, path):
    """(line, rule) hits in `source`, scoped by its path relative to src/."""
    d1 = path.split("/")[0] in ("runtime", "matching", "coloring", "service")
    d3 = path not in ("runtime/serialize.hpp", "runtime/serialize.cpp")
    pad = [("", 0)] * 4
    toks = pad + list(tokens(source)) + pad
    hits = set()
    for i in range(4, len(toks) - 4):
        text, line = toks[i]
        after = [t for t, _ in toks[i + 1:i + 5]]
        if d1 and text == "#" and after[:2] == ["include", "<"] \
                and after[2] in ("unordered_map", "unordered_set") \
                and after[3] == ">":
            hits.add((line, "D1"))
        if not IDENT.fullmatch(text):
            continue
        prev, before = toks[i - 1][0], toks[i - 2][0]
        qualified = before == ">" or (IDENT.fullmatch(before) and before not in
                                      CALL_WORDS | {"std", "chrono"})
        if prev in (".", "->") or (prev == "::" and qualified):
            continue
        call = after[0] == "("
        declared = IDENT.fullmatch(prev) and prev not in CALL_WORDS
        if (text in ("rand", "srand", "time") and call and not declared) \
                or text in ("random_device", "system_clock"):
            hits.add((line, "D2"))
        if d3 and ((text == "memcpy" and call) or text == "reinterpret_cast"):
            hits.add((line, "D3"))
    return hits


def main():
    failed = False
    for name, path, expected in FIXTURE_CASES:
        got = check((FIXTURES / name).read_text(), path)
        if got != expected:
            failed = True
            print(f"fixture {name} as src/{path}: expected {sorted(expected)}, "
                  f"got {sorted(got)}")
    src = ROOT / "src"
    files = sorted(p for p in src.rglob("*") if p.suffix in (".cpp", ".hpp"))
    hits = 0
    for f in files:
        rel = f.relative_to(src).as_posix()
        for line, rule in sorted(check(f.read_text(), rel)):
            hits += 1
            print(f"src/{rel}:{line}: [{rule}] {MESSAGE[rule]}")
    print(f"check_determinism_rules: {len(FIXTURE_CASES)} fixture cases, "
          f"{len(files)} files, {hits} hit(s)")
    return 1 if failed or hits else 0


if __name__ == "__main__":
    sys.exit(main())
