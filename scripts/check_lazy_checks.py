#!/usr/bin/env python3
"""Fail when a panicIf/fatalIf call in src/ formats its message eagerly.

panicIf and fatalIf (src/common/logging.h) take the message pieces
and format them only when the check fires. A call written as

    panicIf(cond, strCat("bad device ", d));

builds the string on every call, including the ones that pass, which
on hot paths costs more than the work the check guards. This script
matches parentheses across lines, with comments and string literals
blanked out, and reports every panicIf( / fatalIf( whose argument list
contains a strCat( call.

Usage: python3 scripts/check_lazy_checks.py [ROOT]   (default: src)
Exit status 1 when an eager call is found, 0 otherwise.
"""

import pathlib
import re
import sys

CHECK_CALL = re.compile(r"\b(panicIf|fatalIf)\s*\(")
STRCAT_CALL = re.compile(r"\bstrCat\s*\(")
SOURCE_SUFFIXES = {".h", ".hh", ".hpp", ".cc", ".cpp"}


def blank_comments_and_strings(text):
    """Return text with comments and string/char literals replaced by
    spaces. Newlines are kept, so offsets map to the same lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end < 0 else end
            out.append(" " * (end - i))
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c == "R" and nxt == '"':
            # Raw string literal: R"delim( ... )delim"
            open_paren = text.find("(", i + 2)
            delim = text[i + 2:open_paren]
            end = text.find(")" + delim + '"', open_paren)
            end = n if end < 0 else end + len(delim) + 2
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.append(c + " " * (end - i - 2) + c if end - i >= 2
                       else " " * (end - i))
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching_paren(code, open_pos):
    """Offset of the ')' closing the '(' at open_pos, or -1."""
    depth = 0
    for j in range(open_pos, len(code)):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return -1


def eager_calls(text):
    """Yield (line, name) for each check call with a strCat argument."""
    code = blank_comments_and_strings(text)
    for m in CHECK_CALL.finditer(code):
        open_pos = m.end() - 1
        close_pos = matching_paren(code, open_pos)
        if close_pos < 0:
            continue
        if STRCAT_CALL.search(code, open_pos, close_pos):
            yield code.count("\n", 0, m.start()) + 1, m.group(1)


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    if not root.is_dir():
        print(f"check_lazy_checks: no directory {root}", file=sys.stderr)
        return 2
    found = 0
    for path in sorted(root.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        for line, name in eager_calls(path.read_text(encoding="utf-8")):
            print(f"{path}:{line}: {name}() takes a strCat(...) argument;"
                  " pass the message pieces directly")
            found += 1
    if found:
        print(f"check_lazy_checks: {found} eager check message(s)")
        return 1
    print("check_lazy_checks: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
