#include "term/term_writer.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "support/logging.hh"
#include "term/clause.hh"
#include "term/operators.hh"

namespace clare::term {

namespace {

/** Characters that make up symbolic atoms. */
constexpr std::string_view kSymbolChars = "+-*/\\^<>=~:.?@#&";

bool
isUnquotedAtom(const std::string &name)
{
    if (name.empty())
        return false;
    if (name == "[]" || name == "." || name == "!" || name == ";")
        return true;
    if (std::islower(static_cast<unsigned char>(name[0]))) {
        for (char c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
                return false;
        }
        return true;
    }
    // Symbolic atoms made purely of symbol chars.
    for (char c : name) {
        if (kSymbolChars.find(c) == std::string_view::npos)
            return false;
    }
    return true;
}

} // namespace

std::string
TermWriter::write(const TermArena &arena, TermRef t) const
{
    std::string out;
    writeTerm(arena, t, out);
    return out;
}

void
TermWriter::writeAtomText(const std::string &name, std::string &out) const
{
    if (isUnquotedAtom(name)) {
        out += name;
        return;
    }
    out += '\'';
    for (char c : name) {
        if (c == '\'' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '\'';
}

void
TermWriter::writeTerm(const TermArena &arena, TermRef t,
                      std::string &out) const
{
    switch (arena.kind(t)) {
      case TermKind::Atom:
        writeAtomText(symbols_.name(arena.atomSymbol(t)), out);
        return;
      case TermKind::Int: {
        char buf[24];
        const auto end =
            std::to_chars(buf, buf + sizeof(buf), arena.intValue(t)).ptr;
        out.append(buf, end);
        return;
      }
      case TermKind::Float: {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%g",
                      symbols_.floatValue(arena.floatId(t)));
        out += buf;
        // Ensure it reads back as a float, not an integer.
        std::string s(buf);
        if (s.find('.') == std::string::npos &&
            s.find('e') == std::string::npos &&
            s.find("inf") == std::string::npos &&
            s.find("nan") == std::string::npos) {
            out += ".0";
        }
        return;
      }
      case TermKind::Var:
        if (arena.isAnonymous(t)) {
            out += "_G";
            out += std::to_string(arena.varId(t));
        } else {
            out += symbols_.name(arena.varName(t));
        }
        return;
      case TermKind::Struct: {
        const std::string &name = symbols_.name(arena.functor(t));
        // Render operator structures infix (they were parsed that
        // way), with precedence-aware parenthesization so the output
        // reads back identically.
        if (arena.arity(t) == 2) {
            if (const OperatorInfo *op = infixOperator(name)) {
                writeOperand(arena, arena.arg(t, 0),
                             op->yfx ? op->prec : op->prec - 1, true,
                             out);
                if (std::isalpha(static_cast<unsigned char>(name[0]))) {
                    out += ' ';
                    out += name;
                    out += ' ';
                } else {
                    out += name;
                }
                writeOperand(arena, arena.arg(t, 1),
                             op->xfy ? op->prec : op->prec - 1,
                             true, out);
                return;
            }
        }
        if (arena.arity(t) == 1 && isPrefixNot(name)) {
            out += name;
            out += ' ';
            writeOperand(arena, arena.arg(t, 0), kPrefixNotPrecedence,
                         true, out);
            return;
        }
        writeAtomText(name, out);
        out += '(';
        for (std::uint32_t i = 0; i < arena.arity(t); ++i) {
            if (i)
                out += ',';
            writeOperand(arena, arena.arg(t, i), 999, false, out);
        }
        out += ')';
        return;
      }
      case TermKind::List: {
        out += '[';
        for (std::uint32_t i = 0; i < arena.arity(t); ++i) {
            if (i)
                out += ',';
            writeOperand(arena, arena.arg(t, i), 999, false, out);
        }
        if (!arena.isTerminatedList(t)) {
            out += '|';
            writeTerm(arena, arena.listTail(t), out);
        }
        out += ']';
        return;
      }
    }
    clare_panic("unreachable term kind");
}

/** Precedence of a term when used as an operand (0 for non-ops). */
int
TermWriter::termPrecedence(const TermArena &arena, TermRef t) const
{
    if (arena.kind(t) != TermKind::Struct)
        return 0;
    const std::string &name = symbols_.name(arena.functor(t));
    if (arena.arity(t) == 2) {
        if (const OperatorInfo *op = infixOperator(name))
            return op->prec;
    }
    if (arena.arity(t) == 1 && isPrefixNot(name))
        return kPrefixNotPrecedence;
    return 0;
}

void
TermWriter::writeOperand(const TermArena &arena, TermRef t,
                         int max_prec, bool infix_context,
                         std::string &out) const
{
    // Negative numeric literals need parentheses as operands: "1--3"
    // would not lex.
    bool negative_literal =
        (arena.kind(t) == TermKind::Int && arena.intValue(t) < 0) ||
        (arena.kind(t) == TermKind::Float &&
         symbols_.floatValue(arena.floatId(t)) < 0);
    // A bare symbolic atom next to a symbolic operator would lex as
    // one longer symbolic token ("*+"), so such operands are
    // parenthesized.
    bool symbolic_atom = false;
    if (arena.kind(t) == TermKind::Atom) {
        const std::string &name = symbols_.name(arena.atomSymbol(t));
        // Operator-*named* atoms also confuse re-parsing even when
        // alphanumeric ("is-1" would lex -1 as a literal), so they
        // are parenthesized too.
        symbolic_atom = (!name.empty() &&
            kSymbolChars.find(name[0]) != std::string_view::npos) ||
            infixOperator(name) != nullptr;
    }
    // The literal/atom lexing hazards only exist next to an infix
    // operator; in argument positions only precedence matters.
    bool parens = (infix_context && (negative_literal || symbolic_atom))
        || termPrecedence(arena, t) > max_prec;
    if (parens)
        out += '(';
    writeTerm(arena, t, out);
    if (parens)
        out += ')';
}

std::string
TermWriter::writeClause(const Clause &clause) const
{
    return writeClause(clause.view());
}

std::string
TermWriter::writeClause(const ClauseView &clause) const
{
    std::string out;
    appendClause(clause, out);
    return out;
}

void
TermWriter::appendClause(const ClauseView &clause, std::string &out) const
{
    writeTerm(*clause.arena, clause.head, out);
    if (!clause.isFact()) {
        out += " :- ";
        for (std::size_t i = 0; i < clause.body.size(); ++i) {
            if (i)
                out += ", ";
            writeTerm(*clause.arena, clause.body[i], out);
        }
    }
    // A trailing symbolic character would merge with the clause dot
    // ("+." lexes as one symbolic atom); separate them.
    if (!out.empty() && out.back() != '.' &&
        kSymbolChars.find(out.back()) != std::string_view::npos) {
        out += ' ';
    }
    out += '.';
}

bool
TermWriter::readsBack(const ClauseView &clause) const
{
    // The reader takes the head below the neck's precedence and splits
    // the body at every top-level ',', so a goal binding looser than
    // an argument would regroup with its neighbours.
    if (termPrecedence(*clause.arena, clause.head) >= 1200 ||
        !termReadsBack(*clause.arena, clause.head))
        return false;
    for (TermRef g : clause.body)
        if (termPrecedence(*clause.arena, g) > 999 ||
            !termReadsBack(*clause.arena, g))
            return false;
    return true;
}

bool
TermWriter::termReadsBack(const TermArena &arena, TermRef t) const
{
    switch (arena.kind(t)) {
      case TermKind::Atom:
        return true;
      case TermKind::Int:
        // Its digits overflow the reader before the sign applies.
        return arena.intValue(t) != INT64_MIN;
      case TermKind::Float: {
        const double v = symbols_.floatValue(arena.floatId(t));
        if (!std::isfinite(v))
            return false;
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return std::strtod(buf, nullptr) == v;
      }
      case TermKind::Var: {
        if (arena.isAnonymous(t))
            return false;
        // A variable token: uppercase or '_' first, '_' alone being
        // the anonymous variable.
        const std::string &name = symbols_.name(arena.varName(t));
        if (name.empty() || name == "_" ||
            !(std::isupper(static_cast<unsigned char>(name[0])) ||
              name[0] == '_'))
            return false;
        for (char c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
                return false;
        return true;
      }
      case TermKind::Struct:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (!termReadsBack(arena, arena.arg(t, i)))
                return false;
        return true;
      case TermKind::List:
        for (std::uint32_t i = 0; i < arena.arity(t); ++i)
            if (!termReadsBack(arena, arena.arg(t, i)))
                return false;
        return arena.isTerminatedList(t) ||
            (arena.kind(arena.listTail(t)) == TermKind::Var &&
             termReadsBack(arena, arena.listTail(t)));
    }
    clare_panic("unreachable term kind");
}

} // namespace clare::term
