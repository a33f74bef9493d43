#include "term/term_writer.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
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
    if (name == "[]" || name == "!" || name == ";")
        return true;
    if (std::islower(static_cast<unsigned char>(name[0]))) {
        for (char c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
                return false;
        }
        return true;
    }
    // Symbolic atoms made purely of symbol chars, but for those the
    // reader would take for a clause neck or end, or a comment.
    if (name == "." || name.starts_with(":-") || name.starts_with("?-") ||
        name.starts_with("/*"))
        return false;
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
        // The shortest digits that read back as the same double, with
        // ".0" on an integral value so it reads back as a float.
        char buf[32];
        char *end = std::to_chars(
            buf, buf + sizeof(buf),
            symbols_.floatValue(arena.floatId(t))).ptr;
        out.append(buf, end);
        if (std::all_of(buf, end, [](char c) {
                return c == '-' || std::isdigit(static_cast<unsigned char>(c));
            }))
            out += ".0";
        return;
      }
      case TermKind::Var:
        if (arena.isAnonymous(t))
            out += '_';
        else
            out += symbols_.name(arena.varName(t));
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
         std::signbit(symbols_.floatValue(arena.floatId(t))));
    // A bare symbolic atom, or a structure written f(...) under a
    // symbolic name, next to a symbolic operator would lex as one
    // longer symbolic token ("*+", "--(1)"), so such operands are
    // parenthesized.
    bool symbolic_atom = false;
    const bool atom = arena.kind(t) == TermKind::Atom;
    if (atom || (arena.kind(t) == TermKind::Struct &&
                 termPrecedence(arena, t) == 0)) {
        const std::string &name =
            symbols_.name(atom ? arena.atomSymbol(t) : arena.functor(t));
        // Operator-*named* atoms also confuse re-parsing even when
        // alphanumeric ("is-1" would lex -1 as a literal), so they
        // are parenthesized too.
        symbolic_atom = (!name.empty() &&
            kSymbolChars.find(name[0]) != std::string_view::npos) ||
            (atom && infixOperator(name) != nullptr);
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
    // The reader takes the head below the neck's precedence and splits
    // the body at every top-level ',', so a head or goal that binds
    // looser is parenthesized.
    writeOperand(*clause.arena, clause.head, 1199, false, out);
    if (!clause.isFact()) {
        out += " :- ";
        for (std::size_t i = 0; i < clause.body.size(); ++i) {
            if (i)
                out += ", ";
            writeOperand(*clause.arena, clause.body[i], 999, false, out);
        }
    }
    // A trailing symbolic character would merge with the clause dot
    // ("+." lexes as one symbolic atom); separate them.
    if (!out.empty() &&
        kSymbolChars.find(out.back()) != std::string_view::npos) {
        out += ' ';
    }
    out += '.';
}

} // namespace clare::term
