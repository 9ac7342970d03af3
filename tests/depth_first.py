"""Check that a listing read from standard input is depth-first, and
print its number of lines.

Each line is a JSON object with a "cells" list, as `borelbox count
--list` prints it.  The first line is the empty partition, and each line
after it is the last line with one cell fewer (on the current path) plus
one cell at its end.  A line that breaks this exits nonzero and names
the line.

    python -m borelbox count --d 2 --n 8 --list | python tests/depth_first.py
"""

import json
import sys


def main() -> None:
    path, lines = [], 0
    for lines, line in enumerate(sys.stdin, 1):
        cells = json.loads(line)["cells"]
        if not (len(cells) <= len(path) and path[len(cells) - 1] == cells[:-1]
                if cells else not path):
            sys.exit(f"line {lines} is not depth-first: {line.strip()}")
        del path[len(cells):]
        path.append(cells)
    print(lines)


if __name__ == "__main__":
    main()
