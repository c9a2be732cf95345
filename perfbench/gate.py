"""One gate worker: checks a share of a run's operations.

    python3 perfbench/gate.py TASKS VERDICTS

run.py starts these as plain child processes and waits for each. TASKS is
a pickled list of `workloads.check` tasks; VERDICTS receives the pickled
list of their (problems, label) results, in the same order.
"""

import pickle
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(tasks_path, verdicts_path):
    sys.path.insert(0, str(SRC))
    import workloads

    with open(tasks_path, "rb") as fh:
        tasks = pickle.load(fh)
    verdicts = [workloads.check(task) for task in tasks]
    with open(verdicts_path, "wb") as fh:
        pickle.dump(verdicts, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
