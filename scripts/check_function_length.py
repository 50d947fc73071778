#!/usr/bin/env python3
"""Fail when a function body in a .cc file is longer than MAX_LINES.

A function body is counted from the line of its opening brace to the
line of its closing brace (close - open), so a body of one statement
between braces on their own lines counts 2. Lambdas and nested blocks
count toward the function that contains them. Comments and string
literals are blanked first (with check_lazy_checks'
blank_comments_and_strings), as are preprocessor lines, so braces in
them are not counted.

A brace opens a function body when it sits at namespace or class scope
and the declaration text before it has a parameter list and is not an
initializer (`= {...}`) or a class, struct, union, enum or namespace
head.

Usage: python3 scripts/check_function_length.py [ROOT]   (default: src)
Exit status 1 when a longer function is found, 0 otherwise.
"""

import pathlib
import re
import sys

from check_lazy_checks import blank_comments_and_strings

MAX_LINES = 200
SCOPE_HEAD = re.compile(
    r"^\s*(template\s*<.*>\s*)?"
    r"(class|struct|union|enum|namespace|extern)\b", re.S)
FUNCTION_NAME = re.compile(r"([~\w:]+(?:\s*operator\s*[^\s(]+)?)\s*\($")


def blank_preprocessor(code):
    """Blank preprocessor directives, continuation lines included."""
    lines = code.split("\n")
    in_directive = False
    for i, line in enumerate(lines):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            lines[i] = ""
    return "\n".join(lines)


def function_name(head):
    """Best-effort name of the function declared by @p head."""
    paren = head.find("(")
    match = FUNCTION_NAME.search(head[:paren + 1]) if paren >= 0 else None
    return match.group(1) if match else head.strip().split("\n")[-1][:60]


def long_functions(text, max_lines=MAX_LINES):
    """Yield (line, name, length) for each function body over the limit."""
    code = blank_preprocessor(blank_comments_and_strings(text))
    # Stack of open scopes: "scope" (namespace/class/top level) may
    # hold function definitions; anything else is a block whose
    # contents are skipped.
    stack = []
    head_start = 0
    for pos, c in enumerate(code):
        if c in ";":
            head_start = pos + 1
        elif c == "{":
            inside_block = stack and stack[-1][0] != "scope"
            head = code[head_start:pos]
            if inside_block:
                kind = "block"
            elif SCOPE_HEAD.match(head) or ")" not in head:
                kind = "scope"
            elif re.search(r"=\s*$", head):
                kind = "block"
            else:
                kind = "function"
            stack.append((kind, pos, head))
            head_start = pos + 1
        elif c == "}":
            if not stack:
                continue
            kind, open_pos, head = stack.pop()
            head_start = pos + 1
            if kind != "function":
                continue
            open_line = code.count("\n", 0, open_pos) + 1
            length = code.count("\n", open_pos, pos)
            if length > max_lines:
                yield open_line, function_name(head), length


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    if not root.is_dir():
        print(f"check_function_length: no directory {root}",
              file=sys.stderr)
        return 2
    found = 0
    for path in sorted(root.rglob("*.cc")):
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        for line, name, length in long_functions(text):
            print(f"{path}:{line}: {name} has a {length}-line body"
                  f" (limit {MAX_LINES})")
            found += 1
    if found:
        print(f"check_function_length: {found} function(s) over"
              f" {MAX_LINES} lines")
        return 1
    print("check_function_length: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
