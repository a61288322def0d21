#!/usr/bin/env python3
"""Check that every gtest filter pattern in the CI workflow matches a test.

    python3 tests/check_ci_filters.py .github/workflows/ci.yml build/tests/hwdp_tests

Reads every --gtest_filter=... in the workflow and fails when one of its
patterns, positive or negative, matches no test that
`hwdp_tests --gtest_list_tests` lists: a renamed or deleted test must
not leave a CI step silently running less than it says.
Exit status 1 listing every such pattern.
"""

import re
import subprocess
import sys

FILTER = re.compile(r"""--gtest_filter=(?:'([^']*)'|"([^"]*)"|(\S+))""")


def list_tests(binary):
    out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    names = []
    suite = None
    for line in out.splitlines():
        name = line.split("#")[0].strip()
        if not name:
            continue
        if not line.startswith(" "):
            # A suite line ends in '.'; anything else is a banner.
            suite = name if name.endswith(".") else None
        elif suite:
            names.append(suite + name)
    return names


def glob_re(pattern):
    """gtest's two wildcards: '*' any string, '?' any one character."""
    body = "".join(".*" if c == "*" else "." if c == "?" else re.escape(c)
                   for c in pattern)
    return re.compile(body + r"\Z")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        workflow = f.read()
    tests = list_tests(sys.argv[2])

    errors = []
    filters = 0
    patterns = 0
    for m in FILTER.finditer(workflow):
        filters += 1
        line = workflow.count("\n", 0, m.start()) + 1
        spec = next(g for g in m.groups() if g is not None)
        positive, _, negative = spec.partition("-")
        for p in positive.split(":") + negative.split(":"):
            if not p:
                continue
            patterns += 1
            rx = glob_re(p)
            if not any(rx.match(t) for t in tests):
                errors.append("line %d: pattern %r matches no test" % (line, p))
    if filters == 0:
        errors.append("no --gtest_filter found in %s" % sys.argv[1])

    for e in errors:
        print("check_ci_filters: " + e)
    if errors:
        return 1
    print("check_ci_filters: %d patterns in %d filters each match one of "
          "%d tests" % (patterns, filters, len(tests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
