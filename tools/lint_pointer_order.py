#!/usr/bin/env python3
"""Rejects loops over pointer-keyed std::map / std::set containers.

An ordered container keyed by a pointer (or by a tuple that holds one)
iterates in heap-address order, which differs from process to process.
A loop over one that reaches printed IR, a report or a cache key makes
the compiler's output depend on the allocator. This lint finds every such
container declared in the scanned C++ files and rejects any loop over it:
a range-for over the name, or a for statement that calls its begin().

A loop whose order cannot matter (a max-reduction, say) may be listed in
the allow-list file next to this script, pointer_order_allowlist.txt, one
entry per line:

    src/path/File.cpp:variable  # why the visiting order does not matter

Every entry must give its reason after '#', and every entry for a scanned
file must still match a loop, so the list cannot go stale.

    tools/lint_pointer_order.py DIR_OR_FILE...
    tools/lint_pointer_order.py --self-test

Exit status: 0 clean, 1 violations or a bad allow-list, 2 usage error.
"""

import os
import re
import sys

ORDERED = re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<")
SOURCE_SUFFIXES = (".h", ".hpp", ".cpp", ".cc")
ALLOW_LIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "pointer_order_allowlist.txt")


def strip_comments(text):
    """Blanks // and /* */ comments and string literals, keeping offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j += 1
        else:
            i += 1
            continue
        for k in range(i, min(j, n)):
            if out[k] != "\n":
                out[k] = " "
        i = j
    return "".join(out)


def template_args(text, start):
    """Returns (args, end) for the <...> list opening at text[start]."""
    depth, i = 0, start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return text[start + 1:i], i + 1
        i += 1
    return None, len(text)


def first_arg(args):
    depth = 0
    for i, c in enumerate(args):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == "," and depth == 0:
            return args[:i]
    return args


def pointer_keyed_names(code):
    """Names declared as ordered containers whose key holds a pointer."""
    names = set()
    for match in ORDERED.finditer(code):
        args, end = template_args(code, match.end() - 1)
        if args is None or "*" not in first_arg(args):
            continue
        decl = re.match(r"\s*[&*]*\s*(\w+)\s*[;={(,)\[]", code[end:])
        if decl:
            names.add(decl.group(1))
    return names


def loops_over(code, names):
    """Yields (line, name) for each loop over one of `names`."""
    for match in re.finditer(r"\bfor\s*\(", code):
        depth, i = 1, match.end()
        while i < len(code) and depth:
            depth += {"(": 1, ")": -1}.get(code[i], 0)
            i += 1
        header = code[match.end():i - 1]
        line = code.count("\n", 0, match.start()) + 1
        if ";" not in header and ":" in header.replace("::", ""):
            # Range-for: the range expression follows the lone ':'.
            range_expr = re.split(r"(?<!:):(?!:)", header, maxsplit=1)[1]
            ident = re.fullmatch(r"\s*[*&]?\s*(?:this->)?(\w+)\s*",
                                 range_expr)
            if ident and ident.group(1) in names:
                yield line, ident.group(1)
        else:
            for name in names:
                if re.search(r"\b%s\s*(?:\.|->)\s*c?begin\s*\(" % name,
                             header):
                    yield line, name


def source_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, _, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(SOURCE_SUFFIXES):
                    yield os.path.join(root, name)


def read_allow_list(path):
    """Returns ({(file, name): reason}, errors)."""
    entries, errors = {}, []
    if not os.path.exists(path):
        return entries, errors
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entry, _, reason = line.partition("#")
            where = "%s:%d" % (path, number)
            if ":" not in entry or not reason.strip():
                errors.append("%s: entry needs 'file:variable  # reason'"
                              % where)
                continue
            file, name = entry.strip().rsplit(":", 1)
            entries[(os.path.normpath(file), name.strip())] = reason.strip()
    return entries, errors


def lint(paths, allow):
    """Returns the list of error lines for `paths` under `allow`."""
    errors, used, scanned = [], set(), set()
    for path in source_files(paths):
        key_path = os.path.normpath(path)
        scanned.add(key_path)
        with open(path, encoding="utf-8", errors="replace") as f:
            code = strip_comments(f.read())
        names = pointer_keyed_names(code)
        for line, name in loops_over(code, names):
            if (key_path, name) in allow:
                used.add((key_path, name))
                continue
            errors.append(
                "%s:%d: loop over pointer-keyed container '%s' visits it in "
                "heap-address order; key it by program or insertion order, "
                "or allow-list it with the reason order does not matter"
                % (path, line, name))
    for (file, name) in sorted(allow):
        if file in scanned and (file, name) not in used:
            errors.append("allow-list entry %s:%s matches no loop; remove it"
                          % (file, name))
    return errors


def self_test():
    import tempfile
    cases = {
        "bad.cpp": ("std::map<const Value *, int> slots;\n"
                    "void f() { for (auto &[v, s] : slots) use(v); }\n", 1),
        "iter.cpp": ("std::set<std::pair<Block *, int>> seen;\n"
                     "void f() { for (auto it = seen.begin(); it != "
                     "seen.end(); ++it) use(*it); }\n", 1),
        "lookup.cpp": ("std::map<const Loop *, int> total_;\n"
                       "int f(Loop *l) { return total_[l]; }\n"
                       "std::map<std::string, int> byName;\n"
                       "void g() { for (auto &[k, v] : byName) use(k); }\n",
                       0),
        "comment.cpp": ("// std::map<Value *, int> old; for (x : old)\n"
                        "std::vector<Value *> order;\n"
                        "void f() { for (Value *v : order) use(v); }\n", 0),
        "allowed.cpp": ("std::map<const Value *, int> counts;\n"
                        "void f() { for (auto &[v, c] : counts) m = c; }\n",
                        0),
    }
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        allow = {(os.path.normpath(os.path.join(tmp, "allowed.cpp")),
                  "counts"): "max-reduction"}
        for name, (text, expected) in cases.items():
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write(text)
            got = len(lint([path], allow))
            if got != expected:
                print("self-test %s: %d errors, expected %d"
                      % (name, got, expected))
                failures += 1
        stale = {(os.path.normpath(os.path.join(tmp, "lookup.cpp")),
                  "total_"): "unused"}
        if len(lint([os.path.join(tmp, "lookup.cpp")], stale)) != 1:
            print("self-test: a stale allow-list entry was not reported")
            failures += 1
        bad_list = os.path.join(tmp, "allow.txt")
        with open(bad_list, "w") as f:
            f.write("src/a.cpp:slots\n")
        if not read_allow_list(bad_list)[1]:
            print("self-test: an entry without a reason was accepted")
            failures += 1
    print("self-test: %s" % ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


def main(argv):
    paths = []
    for arg in argv:
        if arg == "--self-test":
            return self_test()
        if arg.startswith("-"):
            print(__doc__.strip().splitlines()[0], file=sys.stderr)
            print("unknown option %s" % arg, file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print("usage: lint_pointer_order.py DIR_OR_FILE... | --self-test",
              file=sys.stderr)
        return 2
    allow, errors = read_allow_list(ALLOW_LIST)
    errors += lint(paths, allow)
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
