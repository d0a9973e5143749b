#!/usr/bin/env python3
"""End-to-end fixture tests for dibs-analyzer through the real libclang
frontend.

For every fixtures/*.cc a synthetic compile_commands.json entry is generated
and the full driver pipeline runs (parse -> lower -> rules -> lint:allow ->
baseline). Assertions:

  *_bad.cc   every line marked `// expect(<rule>)` yields >= 1 finding of
             that rule, and every finding sits on a marked line (no
             false positives inside the fixture either);
  *_good.cc  zero findings — and every `lint:allow(<rule>)` line shows up in
             the suppressed_allow report, proving the rule FIRED and was
             escaped (silence-by-brokenness would fail this);
  baseline   --update-baseline followed by a re-run against the fresh
             baseline reports zero new findings and exits 0.

Exits 77 (ctest SKIP_RETURN_CODE) when libclang is unavailable — this is the
CI-only deep end; tests/analyzer/test_kernels.py covers the rule kernels
everywhere. `g++ -fsyntax-only` validation of the fixtures themselves is a
separate ctest (analyzer_fixture_syntax) that always runs.
"""

import glob
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")
sys.path.insert(0, os.path.join(REPO, "tools"))

from analyzer import dibs_analyzer  # noqa: E402
from analyzer import frontend  # noqa: E402
from analyzer import source_text  # noqa: E402

EXPECT_RE = re.compile(r"//\s*expect\((\w[\w-]*)\)")

failures = []


def check(cond, what):
    tag = "ok" if cond else "FAIL"
    print("%s: %s" % (tag, what))
    if not cond:
        failures.append(what)


def expectations(path):
    """dict[rule -> set of 1-based lines marked `// expect(rule)`]."""
    exp = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for m in EXPECT_RE.finditer(line):
                exp.setdefault(m.group(1), set()).add(lineno)
    return exp


def allow_lines(path):
    """dict[rule -> set of lines carrying lint:allow(rule)]."""
    sc = source_text.scan_file(path)
    out = {}
    for lineno, rules in sc.allows.items():
        for rule in rules:
            out.setdefault(rule, set()).add(lineno)
    return out


def run_driver(ccpath, baseline, json_out, update=False):
    argv = ["--compile-commands", ccpath, "--root", FIXTURES,
            "--baseline", baseline, "--quiet", "."]
    if json_out:
        argv += ["--json", json_out]
    if update:
        argv += ["--update-baseline"]
    return dibs_analyzer.main(argv)


def main():
    cindex, reason = frontend.load_libclang()
    if cindex is None:
        print("SKIP: %s" % reason)
        return 77

    fixtures = sorted(glob.glob(os.path.join(FIXTURES, "*.cc")))
    check(len(fixtures) == 10, "found all 10 fixtures (got %d)" % len(fixtures))

    with tempfile.TemporaryDirectory(prefix="dibs-analyzer-test.") as td:
        ccpath = os.path.join(td, "compile_commands.json")
        with open(ccpath, "w", encoding="utf-8") as f:
            json.dump([
                {"directory": td, "file": src,
                 "arguments": ["g++", "-std=c++20", "-c", src]}
                for src in fixtures
            ], f, indent=2)

        empty_baseline = os.path.join(td, "empty_baseline.json")
        with open(empty_baseline, "w", encoding="utf-8") as f:
            json.dump({"version": 1, "findings": []}, f)

        report_path = os.path.join(td, "report.json")
        rc = run_driver(ccpath, empty_baseline, report_path)
        check(rc == 1, "driver exits 1 on the bad fixtures (got %d)" % rc)
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
        check(report["files_analyzed"] == len(fixtures),
              "all %d fixtures analyzed" % len(fixtures))

        by_file = {}
        for f_ in report["findings"]:
            by_file.setdefault(f_["file"], []).append(f_)
        allowed_by_file = {}
        for f_ in report["suppressed_allow"]:
            allowed_by_file.setdefault(f_["file"], []).append(f_)

        for src in fixtures:
            rel = os.path.basename(src)
            findings = by_file.get(rel, [])
            if rel.endswith("_bad.cc"):
                exp = expectations(src)
                check(exp, "%s declares expect() markers" % rel)
                for rule, lines in sorted(exp.items()):
                    for line in sorted(lines):
                        hit = any(f_["rule"] == rule and f_["line"] == line
                                  for f_ in findings)
                        check(hit, "%s:%d fires [%s]" % (rel, line, rule))
                for f_ in findings:
                    ok = f_["line"] in exp.get(f_["rule"], set())
                    check(ok, "%s:%d [%s] is on an expected line"
                          % (rel, f_["line"], f_["rule"]))
            else:
                check(not findings,
                      "%s is clean (got %s)" % (rel, [
                          (f_["rule"], f_["line"]) for f_ in findings]))
                for rule, lines in sorted(allow_lines(src).items()):
                    for line in sorted(lines):
                        hit = any(a["rule"] == rule and a["line"] == line
                                  for a in allowed_by_file.get(rel, []))
                        check(hit, "%s:%d lint:allow(%s) suppressed a live "
                              "finding" % (rel, line, rule))

        # Baseline round trip: grandfather everything, then re-run clean.
        bl2 = os.path.join(td, "grandfathered.json")
        rc = run_driver(ccpath, bl2, None, update=True)
        check(rc == 0, "--update-baseline exits 0")
        report2_path = os.path.join(td, "report2.json")
        rc = run_driver(ccpath, bl2, report2_path)
        check(rc == 0, "re-run against fresh baseline exits 0 (got %d)" % rc)
        with open(report2_path, encoding="utf-8") as f:
            report2 = json.load(f)
        check(not report2["findings"], "no new findings after baselining")
        check(len(report2["suppressed_baseline"]) == len(report["findings"]),
              "every original finding matched a baseline entry (%d vs %d)"
              % (len(report2["suppressed_baseline"]),
                 len(report["findings"])))

    if failures:
        print("\n%d assertion(s) failed" % len(failures))
        return 1
    print("\nall fixture assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
