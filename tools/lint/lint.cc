/**
 * @file
 * rissp_lint implementation: a comment/string scrubber, a tiny
 * identifier tokenizer, and the check registry (lint.hh lists the
 * checks and the rules for adding one).
 */

#include "tools/lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace rissp::lint
{

namespace
{

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/** Parse `rissp-lint: allow(a, b)` out of one comment's text and
 *  record the names against @p line. */
void
recordAllows(const std::string &comment, size_t line,
             std::vector<std::vector<std::string>> &allows)
{
    const std::string marker = "rissp-lint:";
    size_t at = comment.find(marker);
    if (at == std::string::npos)
        return;
    at = comment.find("allow(", at + marker.size());
    if (at == std::string::npos)
        return;
    const size_t open = at + 6;
    const size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return;
    if (allows.size() < line)
        allows.resize(line);
    std::string name;
    std::istringstream names(comment.substr(open, close - open));
    while (std::getline(names, name, ',')) {
        const size_t b = name.find_first_not_of(" \t");
        const size_t e = name.find_last_not_of(" \t");
        if (b != std::string::npos)
            allows[line - 1].push_back(
                name.substr(b, e - b + 1));
    }
}

/** Next non-whitespace character at or after @p pos, or '\0'. */
char
nextCode(const std::string &text, size_t pos)
{
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    return pos < text.size() ? text[pos] : '\0';
}

struct Token
{
    std::string_view text;
    size_t pos = 0;  ///< offset into scrubbed text
    size_t line = 0; ///< 1-based
};

/** Every identifier token in @p scrubbed, with its line. */
std::vector<Token>
tokenize(const std::string &scrubbed)
{
    std::vector<Token> tokens;
    size_t line = 1;
    for (size_t i = 0; i < scrubbed.size();) {
        const char c = scrubbed[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (isIdentStart(c)) {
            size_t end = i + 1;
            while (end < scrubbed.size() &&
                   isIdentChar(scrubbed[end]))
                ++end;
            tokens.push_back(
                {std::string_view(scrubbed).substr(i, end - i), i,
                 line});
            i = end;
            continue;
        }
        // Skip numbers wholesale so 0xAB's 'x' or 1e5's 'e' never
        // start a bogus identifier.
        if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t end = i + 1;
            while (end < scrubbed.size() &&
                   (isIdentChar(scrubbed[end]) ||
                    scrubbed[end] == '.'))
                ++end;
            i = end;
            continue;
        }
        ++i;
    }
    return tokens;
}

/** True when the token at @p t is a call: next code char is '('. */
bool
isCall(const SourceFile &f, const Token &t)
{
    return nextCode(f.scrubbed, t.pos + t.text.size()) == '(';
}

/** True when the token is qualified as `std::name` ending at @p t. */
bool
stdQualified(const std::vector<Token> &tokens, size_t index,
             const SourceFile &f)
{
    if (index == 0)
        return false;
    const Token &prev = tokens[index - 1];
    if (prev.text != "std")
        return false;
    // Only "::" (plus whitespace) may sit between the two tokens.
    const size_t begin = prev.pos + prev.text.size();
    const size_t end = tokens[index].pos;
    std::string between = f.scrubbed.substr(begin, end - begin);
    between.erase(std::remove_if(between.begin(), between.end(),
                                 [](unsigned char c) {
                                     return std::isspace(c);
                                 }),
                  between.end());
    return between == "::";
}

void
addFinding(std::vector<Finding> &out, const SourceFile &f,
           const Token &t, const char *check, std::string message)
{
    out.push_back({f.path, t.line, check, std::move(message)});
}

// ------------------------------------------------------ the checks

void
checkNoTerminate(const SourceFile &f, std::vector<Finding> &out)
{
    if (!isLibraryPath(f.path))
        return;
    // The documented trusted-input termination layer: panic()'s
    // abort and fatal()'s exit live here and nowhere else.
    if (f.path == "src/util/logging.cc" ||
        f.path == "src/util/logging.hh")
        return;
    static const std::string_view banned[] = {
        "fatal", "abort",     "exit",      "_exit",
        "_Exit", "quick_exit", "terminate",
    };
    const std::vector<Token> tokens = tokenize(f.scrubbed);
    for (const Token &t : tokens) {
        for (std::string_view name : banned) {
            if (t.text == name && isCall(f, t))
                addFinding(
                    out, f, t, "no-terminate",
                    "process-terminating call '" +
                        std::string(t.text) +
                        "()' in library code — return a Status "
                        "(util/status.hh); panic() is the only "
                        "sanctioned abort, for internal invariants");
        }
    }
}

void
checkRawMutex(const SourceFile &f, std::vector<Finding> &out)
{
    if (!isLibraryPath(f.path))
        return;
    // The annotated wrappers themselves are built on the raw types.
    if (f.path == "src/util/mutex.hh")
        return;
    static const std::string_view banned[] = {
        "mutex",
        "timed_mutex",
        "recursive_mutex",
        "recursive_timed_mutex",
        "shared_mutex",
        "shared_timed_mutex",
        "condition_variable",
        "condition_variable_any",
    };
    const std::vector<Token> tokens = tokenize(f.scrubbed);
    for (size_t i = 0; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        for (std::string_view name : banned) {
            if (t.text == name && stdQualified(tokens, i, f))
                addFinding(
                    out, f, t, "raw-mutex",
                    "raw std::" + std::string(t.text) +
                        " in library code carries no capability "
                        "annotation — use rissp::Mutex / CondVar "
                        "(util/mutex.hh) so -Wthread-safety can "
                        "check the locking");
        }
    }
}

void
checkNoStdout(const SourceFile &f, std::vector<Finding> &out)
{
    if (!isLibraryPath(f.path))
        return;
    const std::vector<Token> tokens = tokenize(f.scrubbed);
    for (size_t i = 0; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        const bool call =
            (t.text == "printf" || t.text == "puts" ||
             t.text == "putchar") &&
            isCall(f, t);
        const bool stream =
            t.text == "cout" && stdQualified(tokens, i, f);
        if (call || stream)
            addFinding(
                out, f, t, "no-stdout",
                "stdout write ('" + std::string(t.text) +
                    "') in library code — stdout belongs to the "
                    "CLI layer (tools/, bench/, examples/); report "
                    "through response structs or stderr warn()");
    }
}

void
checkBannedCall(const SourceFile &f, std::vector<Finding> &out)
{
    struct BannedFn
    {
        std::string_view name;
        const char *why;
    };
    static const BannedFn banned[] = {
        {"strcpy", "unbounded copy; use std::string or snprintf"},
        {"strcat", "unbounded append; use std::string"},
        {"sprintf", "unbounded format; use snprintf/strFormat"},
        {"vsprintf", "unbounded format; use vsnprintf/vstrFormat"},
        {"gets", "unbounded read; use fgets or std::getline"},
        {"strtok", "non-reentrant static state; use util/strings "
                   "split()"},
        {"gmtime", "non-reentrant static buffer; use gmtime_r"},
        {"localtime",
         "non-reentrant static buffer; use localtime_r"},
        {"asctime", "non-reentrant static buffer; use strftime"},
        {"ctime", "non-reentrant static buffer; use strftime"},
        {"strerror",
         "non-reentrant static buffer; use util/strings "
         "errnoString()"},
        {"rand", "shared hidden state; use util/rng.hh"},
        {"srand", "shared hidden state; use util/rng.hh"},
    };
    // errnoString() is the sanctioned strerror_r wrapper.
    if (f.path == "src/util/strings.cc")
        return;
    const std::vector<Token> tokens = tokenize(f.scrubbed);
    for (const Token &t : tokens) {
        for (const BannedFn &fn : banned) {
            if (t.text == fn.name && isCall(f, t))
                addFinding(out, f, t, "banned-call",
                           "banned call '" + std::string(t.text) +
                               "()': " + fn.why);
        }
    }
}

void
checkRawFsPublish(const SourceFile &f, std::vector<Finding> &out)
{
    if (!isLibraryPath(f.path))
        return;
    // The artifact store is the sanctioned publisher: its
    // write-fsync-rename sequence is the one place library code may
    // put bytes on disk.
    if (f.path.rfind("src/store/", 0) == 0)
        return;
    const std::vector<Token> tokens = tokenize(f.scrubbed);
    for (size_t i = 0; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        if (t.text == "rename" && isCall(f, t))
            addFinding(
                out, f, t, "raw-fs-publish",
                "rename() in library code outside src/store/ — "
                "publishing files belongs to the artifact store "
                "(store/disk_store.hh), whose write-fsync-rename "
                "protocol keeps crashes from leaving torn state");
        else if (t.text == "ofstream" && stdQualified(tokens, i, f))
            addFinding(
                out, f, t, "raw-fs-publish",
                "std::ofstream in library code outside src/store/ "
                "— library code must not write files directly; "
                "route persistent artifacts through the store "
                "(store/disk_store.hh) and leave ad-hoc file IO to "
                "the CLI edge (tools/, bench/)");
    }
}

void
checkHotSwitchDecode(const SourceFile &f, std::vector<Finding> &out)
{
    // Simulator hot paths (plus top-level src/ files, the shape
    // --as-library inputs and the fixtures take).
    const bool hot =
        f.path.rfind("src/sim/", 0) == 0 ||
        f.path.rfind("src/core/", 0) == 0 ||
        (isLibraryPath(f.path) &&
         f.path.find('/', 4) == std::string::npos);
    if (!hot)
        return;
    // RefSim::step() is the deliberately independent golden
    // statement of the semantics; its switch stays by design.
    if (f.path == "src/sim/refsim.cc")
        return;
    const std::vector<Token> tokens = tokenize(f.scrubbed);
    for (const Token &t : tokens) {
        if (t.text != "switch" || !isCall(f, t))
            continue;
        size_t open = t.pos + t.text.size();
        while (open < f.scrubbed.size() && f.scrubbed[open] != '(')
            ++open;
        size_t close = std::string::npos;
        int depth = 0;
        for (size_t j = open; j < f.scrubbed.size(); ++j) {
            if (f.scrubbed[j] == '(') {
                ++depth;
            } else if (f.scrubbed[j] == ')' && --depth == 0) {
                close = j;
                break;
            }
        }
        if (close == std::string::npos)
            continue;
        const std::string cond =
            f.scrubbed.substr(open + 1, close - open - 1);
        for (const Token &ct : tokenize(cond)) {
            if (ct.text == "op" || ct.text == "Op") {
                addFinding(
                    out, f, t, "hot-switch-decode",
                    "per-instruction switch over '" +
                        std::string(ct.text) +
                        "' in a simulator hot path — instruction "
                        "dispatch belongs to the shared threaded "
                        "interpreter core (sim/exec_core.inc), not "
                        "ad-hoc decode switches");
                break;
            }
        }
    }
}

void
checkBlockingSocketIo(const SourceFile &f, std::vector<Finding> &out)
{
    // The serving layer's single-reactor contract: every connection
    // fd is nonblocking and owned by the reactor's event loop, so
    // raw socket IO anywhere else in src/net/ is either a blocking
    // call about to stall the loop or a second owner racing it.
    // (Top-level src/ files are in scope too — the shape
    // --as-library inputs and the fixtures take.)
    const bool scoped =
        f.path.rfind("src/net/", 0) == 0 ||
        (isLibraryPath(f.path) &&
         f.path.find('/', 4) == std::string::npos);
    if (!scoped)
        return;
    // The reactor is the sanctioned owner of socket readiness and
    // the only file that may recv/send/accept.
    if (f.path == "src/net/reactor.cc")
        return;
    static const std::string_view banned[] = {
        "recv",    "send",    "accept",  "accept4",
        "recvfrom", "sendto", "recvmsg", "sendmsg",
    };
    const std::vector<Token> tokens = tokenize(f.scrubbed);
    for (const Token &t : tokens) {
        for (std::string_view name : banned) {
            if (t.text == name && isCall(f, t))
                addFinding(
                    out, f, t, "blocking-socket-io",
                    "raw socket call '" + std::string(t.text) +
                        "()' in src/net/ outside the reactor — "
                        "connection IO belongs to the nonblocking "
                        "event loop (net/reactor.cc); route bytes "
                        "through Reactor::complete() and the "
                        "request handler instead");
        }
    }
}

void
checkIncludeGuard(const SourceFile &f, std::vector<Finding> &out)
{
    if (!isHeaderPath(f.path))
        return;
    // Gather the first two preprocessor directives of the scrubbed
    // text (comments are already blank, so a license banner cannot
    // hide the guard).
    std::istringstream lines(f.scrubbed);
    std::string line;
    std::vector<std::string> directives;
    while (std::getline(lines, line) && directives.size() < 2) {
        const size_t b = line.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        if (line[b] != '#') {
            // Code before any guard: cannot be a guarded header.
            break;
        }
        directives.push_back(line.substr(b));
    }
    auto word = [](const std::string &directive, size_t skip) {
        std::istringstream in(directive);
        std::string w;
        for (size_t i = 0; i <= skip; ++i)
            if (!(in >> w))
                return std::string();
        return w;
    };
    if (!directives.empty()) {
        if (word(directives[0], 0) == "#pragma" &&
            word(directives[0], 1) == "once")
            return;
        if (directives.size() == 2 &&
            word(directives[0], 0) == "#ifndef" &&
            word(directives[1], 0) == "#define" &&
            !word(directives[0], 1).empty() &&
            word(directives[0], 1) == word(directives[1], 1))
            return;
    }
    out.push_back(
        {f.path, 1, "include-guard",
         "header lacks #pragma once or a matched #ifndef/#define "
         "include guard"});
}

} // namespace

// ----------------------------------------------------- public API

bool
SourceFile::allowed(size_t line, std::string_view check) const
{
    if (line == 0 || line > allows.size())
        return false;
    const std::vector<std::string> &names = allows[line - 1];
    return std::find(names.begin(), names.end(), check) !=
           names.end();
}

SourceFile
makeSourceFile(std::string path, std::string content)
{
    SourceFile f;
    f.path = std::move(path);
    f.content = std::move(content);
    f.scrubbed = f.content;
    std::string &text = f.scrubbed;

    enum class Mode
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    Mode mode = Mode::Code;
    size_t line = 1;
    std::string commentText;  // accumulates for allow() parsing
    size_t commentLine = 0;
    std::string rawDelim;     // )delim" terminator of a raw string

    auto blank = [&](size_t i) {
        if (text[i] != '\n')
            text[i] = ' ';
    };

    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (mode) {
          case Mode::Code:
            if (c == '/' && next == '/') {
                mode = Mode::LineComment;
                commentText.clear();
                commentLine = line;
                blank(i);
            } else if (c == '/' && next == '*') {
                mode = Mode::BlockComment;
                commentText.clear();
                commentLine = line;
                blank(i);
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || !isIdentChar(text[i - 1]))) {
                // Raw string: R"delim( ... )delim"
                size_t open = i + 2;
                std::string delim;
                while (open < text.size() && text[open] != '(' &&
                       delim.size() < 16)
                    delim += text[open++];
                rawDelim = ")" + delim + "\"";
                mode = Mode::RawString;
                blank(i);
            } else if (c == '"') {
                mode = Mode::String;
                blank(i);
            } else if (c == '\'' &&
                       (i == 0 || !isIdentChar(text[i - 1]))) {
                // Ident-adjacent quotes are digit separators
                // (1'000'000), not char literals.
                mode = Mode::Char;
                blank(i);
            }
            break;
          case Mode::LineComment:
            if (c == '\n') {
                recordAllows(commentText, commentLine, f.allows);
                mode = Mode::Code;
            } else {
                commentText += c;
                blank(i);
            }
            break;
          case Mode::BlockComment:
            if (c == '*' && next == '/') {
                recordAllows(commentText, commentLine, f.allows);
                blank(i);
                blank(i + 1);
                ++i;
                mode = Mode::Code;
            } else {
                commentText += c;
                blank(i);
            }
            break;
          case Mode::String:
            if (c == '\\' && next != '\0') {
                blank(i);
                blank(i + 1);
                if (next != '\n')
                    ++i;
            } else {
                blank(i);
                if (c == '"')
                    mode = Mode::Code;
            }
            break;
          case Mode::Char:
            if (c == '\\' && next != '\0') {
                blank(i);
                blank(i + 1);
                if (next != '\n')
                    ++i;
            } else {
                blank(i);
                if (c == '\'')
                    mode = Mode::Code;
            }
            break;
          case Mode::RawString:
            if (c == ')' &&
                text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (size_t k = 0; k < rawDelim.size(); ++k)
                    blank(i + k);
                i += rawDelim.size() - 1;
                mode = Mode::Code;
            } else {
                blank(i);
            }
            break;
        }
        if (c == '\n')
            ++line;
    }
    if (mode == Mode::LineComment)
        recordAllows(commentText, commentLine, f.allows);
    return f;
}

const std::vector<Check> &
checkRegistry()
{
    static const std::vector<Check> checks = {
        {"no-terminate",
         "no fatal()/abort()/exit() in src/ outside the documented "
         "panic() paths (util/logging.*)",
         checkNoTerminate},
        {"raw-mutex",
         "no raw std::mutex/condition_variable in src/ — use the "
         "capability-annotated wrappers in util/mutex.hh",
         checkRawMutex},
        {"no-stdout",
         "no std::cout/printf in src/ — stdout belongs to tools/, "
         "bench/ and examples/",
         checkNoStdout},
        {"banned-call",
         "no non-reentrant or UB-prone calls (strcpy, sprintf, "
         "gmtime, strerror, rand, ...) anywhere",
         checkBannedCall},
        {"raw-fs-publish",
         "no rename()/std::ofstream in src/ outside src/store/ — "
         "persistent files go through the artifact store's atomic "
         "publish protocol",
         checkRawFsPublish},
        {"hot-switch-decode",
         "no per-instruction switch-on-op decode in src/sim/ or "
         "src/core/ hot paths — dispatch lives in the shared "
         "interpreter core (sim/exec_core.inc)",
         checkHotSwitchDecode},
        {"blocking-socket-io",
         "no raw recv/send/accept in src/net/ outside the reactor — "
         "connection IO belongs to the nonblocking event loop "
         "(net/reactor.cc)",
         checkBlockingSocketIo},
        {"include-guard",
         "every header carries #pragma once or a matched "
         "#ifndef/#define guard",
         checkIncludeGuard},
    };
    return checks;
}

std::vector<Finding>
lintFile(const SourceFile &file, std::string_view only_check)
{
    std::vector<Finding> findings;
    for (const Check &check : checkRegistry()) {
        if (!only_check.empty() && only_check != check.name)
            continue;
        check.fn(file, findings);
    }
    findings.erase(
        std::remove_if(findings.begin(), findings.end(),
                       [&](const Finding &finding) {
                           return file.allowed(finding.line,
                                               finding.check);
                       }),
        findings.end());
    return findings;
}

bool
isHeaderPath(std::string_view path)
{
    auto ends = [&](std::string_view suffix) {
        return path.size() >= suffix.size() &&
               path.substr(path.size() - suffix.size()) == suffix;
    };
    return ends(".hh") || ends(".h") || ends(".hpp");
}

bool
isLibraryPath(std::string_view path)
{
    return path.rfind("src/", 0) == 0;
}

std::vector<Finding>
lintTree(const std::string &root, std::string &error,
         std::string_view only_check)
{
    namespace fs = std::filesystem;
    std::vector<Finding> findings;
    static const char *const kDirs[] = {"src", "tools", "bench",
                                        "examples", "tests"};
    static const char *const kExts[] = {".cc", ".hh", ".h", ".cpp",
                                        ".hpp"};
    std::vector<std::string> paths;
    std::error_code ec;
    for (const char *dir : kDirs) {
        const fs::path base = fs::path(root) / dir;
        if (!fs::exists(base, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(base, ec);
             it != fs::recursive_directory_iterator();
             it.increment(ec)) {
            if (ec) {
                error = "cannot walk " + base.string() + ": " +
                        ec.message();
                return findings;
            }
            // The bad fixtures violate the rules on purpose.
            if (it->is_directory() &&
                it->path().filename() == "lint_fixtures") {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (std::find_if(std::begin(kExts), std::end(kExts),
                             [&](const char *e) {
                                 return ext == e;
                             }) == std::end(kExts))
                continue;
            paths.push_back(
                fs::relative(it->path(), root, ec)
                    .generic_string());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        std::ifstream in(fs::path(root) / path,
                         std::ios::binary);
        if (!in) {
            error = "cannot read " + path;
            return findings;
        }
        std::ostringstream content;
        content << in.rdbuf();
        const SourceFile file =
            makeSourceFile(path, content.str());
        std::vector<Finding> fileFindings =
            lintFile(file, only_check);
        findings.insert(findings.end(),
                        std::make_move_iterator(fileFindings.begin()),
                        std::make_move_iterator(fileFindings.end()));
    }
    return findings;
}

} // namespace rissp::lint
