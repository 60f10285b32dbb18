"""Fail unless a tier-1 JUnit report holds tests and its only failure is the known one.

Tier-1 stays red while acceptance criterion 9 fails (its bound is kept
as the paper states it), so the pytest step alone cannot show a second
failure. This check reads the report that step wrote and exits 1 if it
is missing, holds no test case, or any test case other than criterion 9
failed or errored. Nothing is deselected or skipped.

Usage: python .github/check_tier1_report.py REPORT.xml
"""

import sys
import xml.etree.ElementTree as ET

KNOWN = ("tests.test_acceptance", "test_criterion_09_oscillatory_limit_convergence")


def main(path):
    try:
        cases = list(ET.parse(path).getroot().iter("testcase"))
    except (OSError, ET.ParseError) as exc:
        print(f"no readable tier-1 report at {path}: {exc}")
        return 1
    failed = [
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if (case.get("classname"), case.get("name")) != KNOWN
        and (case.find("failure") is not None or case.find("error") is not None)
    ]
    for name in failed:
        print(f"failed or errored: {name}")
    print(f"{len(cases)} test cases, {len(failed)} failed or errored besides criterion 9")
    return 1 if failed or not cases else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
