#include "term/term_reader.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "support/logging.hh"
#include "term/operators.hh"

namespace clare::term {

namespace {

/** Token categories produced by the lexer. */
enum class Tok
{
    Atom,       // unquoted, quoted or symbolic atom text
    Var,        // variable name (starts uppercase or '_')
    Int,
    Float,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Bar,
    Neck,       // :-
    QueryNeck,  // ?-
    EndClause,  // '.' followed by layout or EOF
    End,        // end of input
};

struct Token
{
    Tok kind;
    std::string text;
    std::int64_t intValue = 0;
    double floatValue = 0.0;
    int line = 0;
};

using OpInfo = OperatorInfo;

inline const OpInfo *
infixOp(const std::string &name)
{
    return infixOperator(name);
}

/** Hand-written lexer over the input text. */
class Lexer
{
  public:
    explicit Lexer(std::string_view text) : text_(text) {}

    const Token &peek()
    {
        if (!hasTok_) {
            tok_ = lex();
            hasTok_ = true;
        }
        return tok_;
    }

    /** Does a token kind end a term (so '-' after it is infix)? */
    static bool
    endsTerm(Tok kind)
    {
        switch (kind) {
          case Tok::Atom:
          case Tok::Var:
          case Tok::Int:
          case Tok::Float:
          case Tok::RParen:
          case Tok::RBracket:
            return true;
          default:
            return false;
        }
    }

    Token take()
    {
        Token t = peek();
        hasTok_ = false;
        // An operator atom does not end a term: after "1 + " a '-3'
        // is a negative literal again.
        prevEndsTerm_ = endsTerm(t.kind) &&
            !(t.kind == Tok::Atom && infixOp(t.text));
        return t;
    }

    int line() const { return line_; }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    Token tok_;
    bool hasTok_ = false;
    bool prevEndsTerm_ = false;

    bool atEnd() const { return pos_ >= text_.size(); }
    char cur() const { return text_[pos_]; }
    char
    lookahead(std::size_t n) const
    {
        return pos_ + n < text_.size() ? text_[pos_ + n] : '\0';
    }

    void
    advance()
    {
        if (text_[pos_] == '\n')
            ++line_;
        ++pos_;
    }

    void
    skipLayout()
    {
        while (!atEnd()) {
            char c = cur();
            if (std::isspace(static_cast<unsigned char>(c))) {
                advance();
            } else if (c == '%') {
                while (!atEnd() && cur() != '\n')
                    advance();
            } else if (c == '/' && lookahead(1) == '*') {
                advance();
                advance();
                while (!atEnd() &&
                       !(cur() == '*' && lookahead(1) == '/')) {
                    advance();
                }
                if (atEnd())
                    clare_fatal("unterminated block comment at line %d",
                                line_);
                advance();
                advance();
            } else {
                break;
            }
        }
    }

    Token
    make(Tok kind, std::string text = "")
    {
        Token t;
        t.kind = kind;
        t.text = std::move(text);
        t.line = line_;
        return t;
    }

    Token lexNumber(bool negative);
    Token lexQuotedAtom();
    Token lex();
};

Token
Lexer::lexNumber(bool negative)
{
    std::size_t start = pos_;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(cur())))
        advance();
    bool isFloat = false;
    if (!atEnd() && cur() == '.' &&
        std::isdigit(static_cast<unsigned char>(lookahead(1)))) {
        isFloat = true;
        advance();
        while (!atEnd() && std::isdigit(static_cast<unsigned char>(cur())))
            advance();
    }
    if (!atEnd() && (cur() == 'e' || cur() == 'E')) {
        std::size_t mark = pos_;
        advance();
        if (!atEnd() && (cur() == '+' || cur() == '-'))
            advance();
        if (!atEnd() && std::isdigit(static_cast<unsigned char>(cur()))) {
            isFloat = true;
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(cur()))) {
                advance();
            }
        } else {
            pos_ = mark;
        }
    }
    std::string digits(text_.substr(start, pos_ - start));
    if (isFloat) {
        Token t = make(Tok::Float, digits);
        t.floatValue = std::strtod(digits.c_str(), nullptr);
        if (negative)
            t.floatValue = -t.floatValue;
        return t;
    }
    // Read unsigned, so the most negative integer's digits fit.
    Token t = make(Tok::Int, digits);
    errno = 0;
    const std::uint64_t magnitude = std::strtoull(digits.c_str(), nullptr, 10);
    if (errno == ERANGE || magnitude > std::uint64_t{INT64_MAX} + negative)
        clare_fatal("integer %s out of range at line %d", digits.c_str(),
                    line_);
    t.intValue = static_cast<std::int64_t>(negative ? 0 - magnitude
                                                    : magnitude);
    return t;
}

Token
Lexer::lexQuotedAtom()
{
    advance(); // opening quote
    std::string text;
    while (true) {
        if (atEnd())
            clare_fatal("unterminated quoted atom at line %d", line_);
        char c = cur();
        if (c == '\\') {
            advance();
            if (atEnd())
                clare_fatal("dangling escape in quoted atom at line %d",
                            line_);
            char e = cur();
            switch (e) {
              case 'n': text += '\n'; break;
              case 't': text += '\t'; break;
              case '\\': text += '\\'; break;
              case '\'': text += '\''; break;
              default: text += e; break;
            }
            advance();
        } else if (c == '\'') {
            advance();
            if (!atEnd() && cur() == '\'') {  // '' escape
                text += '\'';
                advance();
                continue;
            }
            break;
        } else {
            text += c;
            advance();
        }
    }
    return make(Tok::Atom, text);
}

Token
Lexer::lex()
{
    skipLayout();
    if (atEnd())
        return make(Tok::End);

    char c = cur();

    if (c == '(') { advance(); return make(Tok::LParen); }
    if (c == ')') { advance(); return make(Tok::RParen); }
    if (c == '[') { advance(); return make(Tok::LBracket); }
    if (c == ']') { advance(); return make(Tok::RBracket); }
    if (c == ',') { advance(); return make(Tok::Comma); }
    if (c == '|') { advance(); return make(Tok::Bar); }
    if (c == '!' || c == ';') {
        advance();
        return make(Tok::Atom, std::string(1, c));
    }
    if (c == '\'')
        return lexQuotedAtom();

    if (c == ':' && lookahead(1) == '-') {
        advance();
        advance();
        return make(Tok::Neck);
    }
    if (c == '?' && lookahead(1) == '-') {
        advance();
        advance();
        return make(Tok::QueryNeck);
    }

    if (c == '.') {
        char n = lookahead(1);
        if (n == '\0' || std::isspace(static_cast<unsigned char>(n)) ||
            n == '%') {
            advance();
            return make(Tok::EndClause);
        }
        // Otherwise fall through to symbolic atom handling below.
    }

    if (std::isdigit(static_cast<unsigned char>(c)))
        return lexNumber(false);

    // A '-' immediately followed by a digit is a negative literal,
    // but only where a term is expected ("f(-3)"), not after a
    // complete term ("X-3" is the infix operator).
    if (c == '-' && !prevEndsTerm_ &&
        std::isdigit(static_cast<unsigned char>(lookahead(1)))) {
        advance();
        return lexNumber(true);
    }

    if (std::isupper(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = pos_;
        while (!atEnd() &&
               (std::isalnum(static_cast<unsigned char>(cur())) ||
                cur() == '_')) {
            advance();
        }
        return make(Tok::Var, std::string(text_.substr(start,
                                                       pos_ - start)));
    }

    if (std::islower(static_cast<unsigned char>(c))) {
        std::size_t start = pos_;
        while (!atEnd() &&
               (std::isalnum(static_cast<unsigned char>(cur())) ||
                cur() == '_')) {
            advance();
        }
        return make(Tok::Atom, std::string(text_.substr(start,
                                                        pos_ - start)));
    }

    // Symbolic atom (run of symbol characters); '=' alone is special.
    const std::string symbolChars = "+-*/\\^<>=~:.?@#&";
    if (symbolChars.find(c) != std::string::npos) {
        std::size_t start = pos_;
        while (!atEnd() && symbolChars.find(cur()) != std::string::npos)
            advance();
        return make(Tok::Atom,
                    std::string(text_.substr(start, pos_ - start)));
    }

    clare_fatal("unexpected character '%c' (0x%02x) at line %d",
                c, static_cast<unsigned char>(c), line_);
}

/** Recursive-descent parser building into a fresh arena per clause. */
class Parser
{
  public:
    Parser(SymbolTable &symbols, Lexer &lexer)
        : symbols_(symbols), lexer_(lexer)
    {}

    TermArena &arena() { return arena_; }
    std::map<std::string, VarId> &varNames() { return varNames_; }

    /**
     * Parse a term with infix operators up to @p max_prec (standard
     * Prolog operator precedences: 700 for =, is and the comparisons,
     * 500 for +/-, 400 for * / mod).  Argument and list-element
     * contexts use 999; goal and head contexts use 1200.
     */
    TermRef
    parseExpr(int max_prec)
    {
        TermRef left = parsePrimary();
        int left_prec = 0;
        while (lexer_.peek().kind == Tok::Atom ||
               lexer_.peek().kind == Tok::Neck ||
               lexer_.peek().kind == Tok::Comma) {
            Tok peek_kind = lexer_.peek().kind;
            std::string op_name = peek_kind == Tok::Neck ? ":-"
                : peek_kind == Tok::Comma ? ","
                : lexer_.peek().text;
            const OpInfo *op = infixOp(op_name);
            if (!op || op->prec > max_prec)
                break;
            // yfx allows an equal-precedence left operand (left
            // associativity); xfx does not.
            if (left_prec > (op->yfx ? op->prec : op->prec - 1))
                break;
            std::string name = op_name;
            lexer_.take();
            TermRef right = parseExpr(op->xfy ? op->prec
                                              : op->prec - 1);
            TermRef args[] = {left, right};
            left = arena_.makeStruct(symbols_.intern(name), args);
            left_prec = op->prec;
        }
        return left;
    }

    /** Parse "head [:- goals] ." and build a Clause. */
    Clause
    parseClause()
    {
        TermRef head = parseExpr(1199);
        std::vector<TermRef> body;
        if (lexer_.peek().kind == Tok::Neck) {
            lexer_.take();
            body = parseGoals();
        }
        expect(Tok::EndClause, "'.' at end of clause");
        return Clause(std::move(arena_), head, std::move(body));
    }

    /**
     * Parse a goal conjunction.  With ',' an xfy-1000 operator, one
     * parseExpr(1200) consumes the whole conjunction; the resulting
     * right-nested ','/2 spine is flattened into the goal list
     * (disjunctions and other control terms stay nested for the
     * solver).
     */
    std::vector<TermRef>
    parseGoals()
    {
        std::vector<TermRef> goals;
        TermRef conj = parseExpr(1200);
        SymbolId comma = symbols_.intern(",");
        while (arena_.kind(conj) == TermKind::Struct &&
               arena_.functor(conj) == comma &&
               arena_.arity(conj) == 2) {
            goals.push_back(arena_.arg(conj, 0));
            conj = arena_.arg(conj, 1);
        }
        goals.push_back(conj);
        return goals;
    }

    void
    expect(Tok kind, const char *what)
    {
        Token t = lexer_.take();
        if (t.kind != kind)
            clare_fatal("expected %s at line %d (got '%s')",
                        what, t.line, t.text.c_str());
    }

    bool atEnd() { return lexer_.peek().kind == Tok::End; }

  private:
    SymbolTable &symbols_;
    Lexer &lexer_;
    TermArena arena_;
    std::map<std::string, VarId> varNames_;
    VarId nextVar_ = 0;

    /** Can a token begin a term (prefix-operator operand check)? */
    static bool
    startsTerm(Tok kind)
    {
        switch (kind) {
          case Tok::Atom:
          case Tok::Var:
          case Tok::Int:
          case Tok::Float:
          case Tok::LParen:
          case Tok::LBracket:
            return true;
          default:
            return false;
        }
    }

    TermRef
    makeVariable(const std::string &name)
    {
        if (name == "_")
            return arena_.makeVar(nextVar_++, kNoSymbol);
        auto it = varNames_.find(name);
        if (it == varNames_.end())
            it = varNames_.emplace(name, nextVar_++).first;
        return arena_.makeVar(it->second, symbols_.intern(name));
    }

    TermRef
    parsePrimary()
    {
        Token t = lexer_.take();
        switch (t.kind) {
          case Tok::Int:
            return arena_.makeInt(t.intValue);
          case Tok::Float:
            return arena_.makeFloat(symbols_.internFloat(t.floatValue));
          case Tok::Var:
            return makeVariable(t.text);
          case Tok::Atom: {
            SymbolId sym = symbols_.intern(t.text);
            // Prefix negation-as-failure operator (fy 900).
            if (t.text == "\\+" && startsTerm(lexer_.peek().kind)) {
                TermRef arg = parseExpr(900);
                return arena_.makeStruct(sym, std::span(&arg, 1));
            }
            if (lexer_.peek().kind == Tok::LParen) {
                lexer_.take();
                std::vector<TermRef> args;
                args.push_back(parseExpr(999));
                while (lexer_.peek().kind == Tok::Comma) {
                    lexer_.take();
                    args.push_back(parseExpr(999));
                }
                expect(Tok::RParen, "')'");
                return arena_.makeStruct(sym, args);
            }
            return arena_.makeAtom(sym);
          }
          case Tok::LBracket:
            return parseListBody(t.line);
          case Tok::LParen: {
            TermRef inner = parseExpr(1200);
            expect(Tok::RParen, "')'");
            return inner;
          }
          default:
            clare_fatal("unexpected token '%s' at line %d",
                        t.text.c_str(), t.line);
        }
    }

    TermRef
    parseListBody(int line)
    {
        if (lexer_.peek().kind == Tok::RBracket) {
            lexer_.take();
            return arena_.makeAtom(SymbolTable::kNil);
        }
        std::vector<TermRef> elems;
        elems.push_back(parseExpr(999));
        while (lexer_.peek().kind == Tok::Comma) {
            lexer_.take();
            elems.push_back(parseExpr(999));
        }
        TermRef tail = kNoTerm;
        if (lexer_.peek().kind == Tok::Bar) {
            lexer_.take();
            Token t = lexer_.peek();
            if (t.kind == Tok::Var) {
                lexer_.take();
                tail = makeVariable(t.text);
            } else if (t.kind == Tok::LBracket) {
                // [a|[b,c]] — splice the nested list.
                lexer_.take();
                TermRef nested = parseListBody(t.line);
                expect(Tok::RBracket, "']'");
                return spliceTail(std::move(elems), nested, line);
            } else {
                clare_fatal("list tail must be a variable or list "
                            "at line %d", t.line);
            }
        }
        expect(Tok::RBracket, "']'");
        return arena_.makeList(elems, tail);
    }

    TermRef
    spliceTail(std::vector<TermRef> elems, TermRef nested, int line)
    {
        if (arena_.kind(nested) == TermKind::Atom) {
            if (arena_.atomSymbol(nested) != SymbolTable::kNil)
                clare_fatal("list tail must be a list at line %d", line);
            return arena_.makeList(elems, kNoTerm);
        }
        clare_assert(arena_.kind(nested) == TermKind::List,
                     "nested tail must be a list node");
        for (std::uint32_t i = 0; i < arena_.arity(nested); ++i)
            elems.push_back(arena_.arg(nested, i));
        return arena_.makeList(elems, arena_.listTail(nested));
    }
};

} // namespace

ParsedTerm
TermReader::parseTerm(std::string_view text) const
{
    Lexer lexer(text);
    Parser parser(symbols_, lexer);
    ParsedTerm result;
    result.root = parser.parseExpr(1200);
    if (!parser.atEnd()) {
        // Tolerate one trailing end-of-clause dot.
        if (lexer.peek().kind == Tok::EndClause)
            lexer.take();
        if (!parser.atEnd())
            clare_fatal("trailing input after term at line %d",
                        lexer.line());
    }
    result.varNames = parser.varNames();
    result.arena = std::move(parser.arena());
    return result;
}

Clause
TermReader::parseClause(std::string_view text) const
{
    Lexer lexer(text);
    Parser parser(symbols_, lexer);
    Clause clause = parser.parseClause();
    if (!parser.atEnd())
        clare_fatal("trailing input after clause at line %d",
                    lexer.line());
    return clause;
}

std::vector<Clause>
TermReader::parseProgram(std::string_view text) const
{
    std::vector<Clause> clauses;
    Lexer lexer(text);
    while (true) {
        if (lexer.peek().kind == Tok::End)
            break;
        Parser parser(symbols_, lexer);
        clauses.push_back(parser.parseClause());
    }
    return clauses;
}

ParsedQuery
TermReader::parseQuery(std::string_view text) const
{
    Lexer lexer(text);
    if (lexer.peek().kind == Tok::QueryNeck)
        lexer.take();
    Parser parser(symbols_, lexer);
    ParsedQuery result;
    result.goals = parser.parseGoals();
    if (lexer.peek().kind == Tok::EndClause)
        lexer.take();
    if (!parser.atEnd())
        clare_fatal("trailing input after query at line %d", lexer.line());
    result.varNames = parser.varNames();
    result.arena = std::move(parser.arena());
    return result;
}

} // namespace clare::term
