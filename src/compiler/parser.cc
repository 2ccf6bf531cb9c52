#include "compiler/parser.hh"

#include <unordered_map>

#include "util/logging.hh"

namespace rissp::minic
{

namespace
{

/** Binary operator precedence (higher binds tighter). */
int
precOf(Tok t)
{
    switch (t) {
      case Tok::Star:
      case Tok::Slash:
      case Tok::Percent: return 10;
      case Tok::Plus:
      case Tok::Minus: return 9;
      case Tok::Shl:
      case Tok::Shr: return 8;
      case Tok::Lt:
      case Tok::Gt:
      case Tok::Le:
      case Tok::Ge: return 7;
      case Tok::EqEq:
      case Tok::NotEq: return 6;
      case Tok::Amp: return 5;
      case Tok::Caret: return 4;
      case Tok::Pipe: return 3;
      case Tok::AndAnd: return 2;
      case Tok::OrOr: return 1;
      default: return 0;
    }
}

/** Compound-assignment token -> underlying binary operator. */
Tok
compoundBase(Tok t)
{
    switch (t) {
      case Tok::PlusAssign: return Tok::Plus;
      case Tok::MinusAssign: return Tok::Minus;
      case Tok::StarAssign: return Tok::Star;
      case Tok::SlashAssign: return Tok::Slash;
      case Tok::PercentAssign: return Tok::Percent;
      case Tok::AmpAssign: return Tok::Amp;
      case Tok::PipeAssign: return Tok::Pipe;
      case Tok::CaretAssign: return Tok::Caret;
      case Tok::ShlAssign: return Tok::Shl;
      case Tok::ShrAssign: return Tok::Shr;
      default: return Tok::End;
    }
}

class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens)
        : toks(std::move(tokens))
    {
        scopes.emplace_back(); // global scope
    }

    TranslationUnit
    run()
    {
        while (!at(Tok::End))
            parseTopLevel();
        return std::move(unit);
    }

  private:
    // ---- token stream ----

    const Token &peek(size_t ahead = 0) const
    {
        size_t i = pos + ahead;
        return i < toks.size() ? toks[i] : toks.back();
    }

    bool at(Tok t) const { return peek().is(t); }

    const Token &
    advance()
    {
        const Token &t = toks[pos];
        if (pos + 1 < toks.size())
            ++pos;
        return t;
    }

    bool
    accept(Tok t)
    {
        if (at(t)) {
            advance();
            return true;
        }
        return false;
    }

    const Token &
    expect(Tok t)
    {
        if (!at(t))
            throw CompileError(peek().line, strFormat(
                "expected %s, got %s", tokName(t).c_str(),
                tokName(peek().kind).c_str()));
        return advance();
    }

    [[noreturn]] void
    errorHere(const std::string &msg) const
    {
        throw CompileError(peek().line, msg);
    }

    // ---- nesting limits (kMaxNesting) ----

    /** Holds one level of nesting for its lifetime. */
    class Nested
    {
      public:
        explicit Nested(Parser &parser) : p(parser)
        {
            if (p.depth == kMaxNesting)
                p.errorHere(strFormat("nesting deeper than %d levels",
                                      kMaxNesting));
            ++p.depth;
        }
        ~Nested() { --p.depth; }
        Nested(const Nested &) = delete;
        Nested &operator=(const Nested &) = delete;

      private:
        Parser &p;
    };

    /** Append @p kid to @p parent, keeping the parent's tree height
     *  within kMaxNesting. */
    static void
    adopt(Expr &parent, ExprPtr kid)
    {
        if (kid->height >= parent.height) {
            if (kid->height == kMaxNesting)
                throw CompileError(parent.line, strFormat(
                    "expression nested deeper than %d levels",
                    kMaxNesting));
            parent.height = kid->height + 1;
        }
        parent.kids.push_back(std::move(kid));
    }

    // ---- scopes & symbols ----

    Symbol *
    lookup(const std::string &name) const
    {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return f->second;
        }
        return nullptr;
    }

    Symbol *
    declare(const std::string &name, SymKind kind, const Type &type,
            int line)
    {
        auto &scope = scopes.back();
        if (scope.count(name))
            throw CompileError(line, strFormat(
                "redefinition of '%s'", name.c_str()));
        auto sym = std::make_unique<Symbol>();
        sym->name = name;
        sym->type = type;
        sym->kind = kind;
        sym->id = nextSymId++;
        Symbol *raw = sym.get();
        unit.symbols.push_back(std::move(sym));
        scope.emplace(name, raw);
        return raw;
    }

    // ---- types ----

    bool
    atTypeStart() const
    {
        switch (peek().kind) {
          case Tok::KwInt:
          case Tok::KwUnsigned:
          case Tok::KwChar:
          case Tok::KwShort:
          case Tok::KwVoid:
          case Tok::KwConst:
          case Tok::KwStatic:
            return true;
          default:
            return false;
        }
    }

    /** Parse type specifiers: [static] [const] [unsigned] base. */
    Type
    parseDeclSpec(bool *is_const = nullptr)
    {
        bool is_unsigned = false;
        bool saw_const = false;
        while (accept(Tok::KwConst) || accept(Tok::KwStatic))
            saw_const = saw_const || toks[pos - 1].is(Tok::KwConst);
        if (accept(Tok::KwUnsigned))
            is_unsigned = true;
        while (accept(Tok::KwConst))
            saw_const = true;
        BaseTy base;
        if (accept(Tok::KwInt)) {
            base = is_unsigned ? BaseTy::UInt : BaseTy::Int;
        } else if (accept(Tok::KwChar)) {
            base = is_unsigned ? BaseTy::UChar : BaseTy::Char;
        } else if (accept(Tok::KwShort)) {
            accept(Tok::KwInt);
            base = is_unsigned ? BaseTy::UShort : BaseTy::Short;
        } else if (accept(Tok::KwVoid)) {
            if (is_unsigned)
                errorHere("'unsigned void' is not a type");
            base = BaseTy::Void;
        } else if (is_unsigned) {
            base = BaseTy::UInt; // plain 'unsigned'
        } else {
            errorHere("expected a type");
        }
        while (accept(Tok::KwConst))
            saw_const = true;
        if (is_const)
            *is_const = saw_const;
        return Type::scalar(base);
    }

    /** Parse pointer stars and the declarator name. */
    Type
    parseDeclarator(Type base, std::string &name)
    {
        while (accept(Tok::Star))
            ++base.ptr;
        name = expect(Tok::Ident).text;
        return base;
    }

    /** Parse trailing array dimensions "[N][M]". */
    void
    parseArrayDims(Type &type)
    {
        while (accept(Tok::LBracket)) {
            ExprPtr dim = parseAssign();
            int64_t n = evalConst(*dim);
            if (n <= 0)
                throw CompileError(dim->line,
                                   "array dimension must be positive");
            type.dims.push_back(static_cast<int>(n));
            expect(Tok::RBracket);
        }
    }

    // ---- top level ----

    void
    parseTopLevel()
    {
        bool is_const = false;
        Type base = parseDeclSpec(&is_const);
        if (accept(Tok::Semi))
            return; // stray "int;"
        std::string name;
        Type type = parseDeclarator(base, name);
        int line = toks[pos - 1].line;
        if (at(Tok::LParen)) {
            parseFunction(name, type, line);
            return;
        }
        // Global variable(s).
        while (true) {
            parseArrayDims(type);
            parseGlobal(name, type, is_const, line);
            if (!accept(Tok::Comma))
                break;
            type = parseDeclarator(base, name);
            line = toks[pos - 1].line;
        }
        expect(Tok::Semi);
    }

    void
    parseGlobal(const std::string &name, const Type &type,
                bool is_const, int line)
    {
        Global g;
        g.name = name;
        g.type = type;
        g.isConst = is_const;
        g.line = line;
        if (accept(Tok::Assign)) {
            if (type.isArray()) {
                parseArrayInitializer(type, g.init, line);
            } else {
                ExprPtr e = parseAssign();
                g.init.push_back(evalConst(*e));
            }
        }
        g.sym = declare(name, SymKind::Global, type, line);
        unit.globals.push_back(std::move(g));
    }

    /** "{1, 2, {3, 4}}" or a string literal for char arrays; values
     *  are flattened row-major, zero-padded to the array extent. */
    void
    parseArrayInitializer(const Type &type, std::vector<int64_t> &out,
                          int line)
    {
        if (at(Tok::StringLit)) {
            const Token &t = advance();
            if (type.scalarSize() != 1)
                throw CompileError(t.line,
                                   "string initializer on non-char array");
            for (char c : t.text)
                out.push_back(static_cast<unsigned char>(c));
            out.push_back(0);
        } else {
            expect(Tok::LBrace);
            flattenBraces(out);
        }
        const size_t extent = type.sizeInBytes() / type.scalarSize();
        if (out.size() > extent)
            throw CompileError(line, "too many initializer values");
        out.resize(extent, 0);
    }

    void
    flattenBraces(std::vector<int64_t> &out)
    {
        // Opening brace already consumed.
        Nested nested(*this);
        if (accept(Tok::RBrace))
            return;
        do {
            if (accept(Tok::LBrace)) {
                flattenBraces(out);
            } else {
                ExprPtr e = parseAssign();
                out.push_back(evalConst(*e));
            }
        } while (accept(Tok::Comma) && !at(Tok::RBrace));
        expect(Tok::RBrace);
    }

    void
    parseFunction(const std::string &name, const Type &ret_type,
                  int line)
    {
        Symbol *sym = lookup(name);
        if (sym && sym->kind != SymKind::Func)
            throw CompileError(line, strFormat(
                "'%s' redeclared as function", name.c_str()));
        if (!sym) {
            sym = declare(name, SymKind::Func, ret_type, line);
            sym->retType = ret_type;
        }

        expect(Tok::LParen);
        std::vector<DeclVar> params;
        if (!accept(Tok::RParen)) {
            if (at(Tok::KwVoid) && peek(1).is(Tok::RParen)) {
                advance();
                advance();
            } else {
                do {
                    Type pbase = parseDeclSpec();
                    std::string pname;
                    Type pty = parseDeclarator(pbase, pname);
                    parseArrayDims(pty);
                    if (pty.isArray())
                        pty = pty.decayed(); // arrays pass as pointers
                    DeclVar dv;
                    dv.name = pname;
                    dv.type = pty;
                    params.push_back(std::move(dv));
                } while (accept(Tok::Comma));
                expect(Tok::RParen);
            }
        }
        if (params.size() > 6)
            throw CompileError(line,
                               "more than 6 parameters not supported");

        if (accept(Tok::Semi)) {
            // Prototype.
            if (!sym->defined) {
                sym->paramTypes.clear();
                for (const DeclVar &p : params)
                    sym->paramTypes.push_back(p.type);
            }
            return;
        }

        if (sym->defined)
            throw CompileError(line, strFormat(
                "redefinition of function '%s'", name.c_str()));
        sym->defined = true;
        sym->retType = ret_type;
        sym->paramTypes.clear();
        for (const DeclVar &p : params)
            sym->paramTypes.push_back(p.type);

        Function fn;
        fn.name = name;
        fn.retType = ret_type;
        fn.sym = sym;
        fn.line = line;

        scopes.emplace_back();
        for (DeclVar &p : params) {
            p.sym = declare(p.name, SymKind::Param, p.type,
                            line);
            fn.params.push_back(std::move(p));
        }
        currentRet = ret_type;
        fn.body = parseBlock();
        scopes.pop_back();
        unit.functions.push_back(std::move(fn));
    }

    // ---- statements ----

    StmtPtr
    makeStmt(StmtKind kind)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = kind;
        s->line = peek().line;
        return s;
    }

    StmtPtr
    parseBlock()
    {
        expect(Tok::LBrace);
        auto block = makeStmt(StmtKind::Block);
        scopes.emplace_back();
        while (!accept(Tok::RBrace))
            block->stmts.push_back(parseStmt());
        scopes.pop_back();
        return block;
    }

    StmtPtr
    parseStmt()
    {
        Nested nested(*this);
        if (at(Tok::LBrace))
            return parseBlock();
        if (atTypeStart())
            return parseDeclStmt();
        if (accept(Tok::Semi))
            return makeStmt(StmtKind::Empty);

        if (accept(Tok::KwIf)) {
            auto s = makeStmt(StmtKind::If);
            expect(Tok::LParen);
            s->expr = parseExpr();
            expect(Tok::RParen);
            s->body = parseStmt();
            if (accept(Tok::KwElse))
                s->elseBody = parseStmt();
            return s;
        }
        if (accept(Tok::KwWhile)) {
            auto s = makeStmt(StmtKind::While);
            expect(Tok::LParen);
            s->expr = parseExpr();
            expect(Tok::RParen);
            s->body = parseStmt();
            return s;
        }
        if (accept(Tok::KwDo)) {
            auto s = makeStmt(StmtKind::DoWhile);
            s->body = parseStmt();
            expect(Tok::KwWhile);
            expect(Tok::LParen);
            s->expr = parseExpr();
            expect(Tok::RParen);
            expect(Tok::Semi);
            return s;
        }
        if (accept(Tok::KwFor)) {
            auto s = makeStmt(StmtKind::For);
            expect(Tok::LParen);
            scopes.emplace_back();
            if (!accept(Tok::Semi)) {
                if (atTypeStart()) {
                    s->init = parseDeclStmt();
                } else {
                    s->init = makeStmt(StmtKind::Expr);
                    s->init->expr = parseExpr();
                    expect(Tok::Semi);
                }
            }
            if (!at(Tok::Semi))
                s->expr = parseExpr();
            expect(Tok::Semi);
            if (!at(Tok::RParen))
                s->stepExpr = parseExpr();
            expect(Tok::RParen);
            s->body = parseStmt();
            scopes.pop_back();
            return s;
        }
        if (accept(Tok::KwReturn)) {
            auto s = makeStmt(StmtKind::Return);
            if (!at(Tok::Semi)) {
                if (currentRet.isVoid())
                    errorHere("void function returning a value");
                s->expr = parseExpr();
            } else if (!currentRet.isVoid()) {
                errorHere("non-void function must return a value");
            }
            expect(Tok::Semi);
            return s;
        }
        if (accept(Tok::KwBreak)) {
            expect(Tok::Semi);
            return makeStmt(StmtKind::Break);
        }
        if (accept(Tok::KwContinue)) {
            expect(Tok::Semi);
            return makeStmt(StmtKind::Continue);
        }

        auto s = makeStmt(StmtKind::Expr);
        s->expr = parseExpr();
        expect(Tok::Semi);
        return s;
    }

    StmtPtr
    parseDeclStmt()
    {
        auto s = makeStmt(StmtKind::Decl);
        bool is_const = false;
        Type base = parseDeclSpec(&is_const);
        do {
            std::string name;
            Type type = parseDeclarator(base, name);
            parseArrayDims(type);
            DeclVar dv;
            dv.name = name;
            dv.type = type;
            if (accept(Tok::Assign)) {
                if (type.isArray()) {
                    parseArrayInitializer(type, dv.arrayInit, s->line);
                    dv.hasArrayInit = true;
                } else {
                    dv.init = parseAssign();
                }
            }
            dv.sym = declare(name, SymKind::Local, type, s->line);
            if (type.isArray())
                dv.sym->addressTaken = true; // arrays live in memory
            s->decls.push_back(std::move(dv));
        } while (accept(Tok::Comma));
        expect(Tok::Semi);
        return s;
    }

    // ---- expressions ----

    ExprPtr
    makeExpr(ExprKind kind)
    {
        auto e = std::make_unique<Expr>();
        e->kind = kind;
        e->line = peek().line;
        return e;
    }

    ExprPtr parseExpr() { return parseAssign(); }

    ExprPtr
    parseAssign()
    {
        Nested nested(*this);
        ExprPtr lhs = parseCond();
        Tok t = peek().kind;
        if (t == Tok::Assign || compoundBase(t) != Tok::End) {
            requireLvalue(*lhs);
            advance();
            auto e = makeExpr(ExprKind::Assign);
            e->op = t;
            e->line = lhs->line;
            ExprPtr rhs = parseAssign();
            e->ty = lhs->ty;
            adopt(*e, std::move(lhs));
            adopt(*e, std::move(rhs));
            return e;
        }
        return lhs;
    }

    ExprPtr
    parseCond()
    {
        ExprPtr c = parseBinary(1);
        if (!accept(Tok::Question))
            return c;
        auto e = makeExpr(ExprKind::Cond);
        e->line = c->line;
        ExprPtr t = parseAssign();
        expect(Tok::Colon);
        ExprPtr f;
        {
            Nested nested(*this);
            f = parseCond();
        }
        e->ty = t->ty;
        adopt(*e, std::move(c));
        adopt(*e, std::move(t));
        adopt(*e, std::move(f));
        return e;
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        ExprPtr lhs = parseUnary();
        while (true) {
            Tok t = peek().kind;
            int p = precOf(t);
            if (p < min_prec || p == 0)
                return lhs;
            advance();
            ExprPtr rhs = parseBinary(p + 1);
            auto e = makeExpr(ExprKind::Binary);
            e->op = t;
            e->line = lhs->line;
            typeBinary(*e, *lhs, *rhs);
            adopt(*e, std::move(lhs));
            adopt(*e, std::move(rhs));
            lhs = std::move(e);
        }
    }

    void
    typeBinary(Expr &e, const Expr &lhs, const Expr &rhs)
    {
        const Type lt = lhs.ty.isArray() && lhs.ty.dims.size() == 1
            ? lhs.ty.decayed() : lhs.ty;
        const Type rt = rhs.ty.isArray() && rhs.ty.dims.size() == 1
            ? rhs.ty.decayed() : rhs.ty;
        switch (e.op) {
          case Tok::Plus:
          case Tok::Minus:
            if (lt.isPointer() && rt.isPointer()) {
                if (e.op == Tok::Plus)
                    throw CompileError(e.line,
                                       "cannot add two pointers");
                e.ty = Type::scalar(BaseTy::Int);
            } else if (lt.isPointer()) {
                e.ty = lt;
            } else if (rt.isPointer()) {
                if (e.op == Tok::Minus)
                    throw CompileError(e.line,
                                       "int - pointer is invalid");
                e.ty = rt;
            } else {
                e.ty = usualArith(lt, rt);
            }
            break;
          case Tok::Star:
          case Tok::Slash:
          case Tok::Percent:
          case Tok::Amp:
          case Tok::Pipe:
          case Tok::Caret:
            e.ty = usualArith(lt, rt);
            break;
          case Tok::Shl:
          case Tok::Shr:
            e.ty = promote(lt);
            break;
          case Tok::Lt:
          case Tok::Gt:
          case Tok::Le:
          case Tok::Ge:
          case Tok::EqEq:
          case Tok::NotEq:
          case Tok::AndAnd:
          case Tok::OrOr:
            e.ty = Type::scalar(BaseTy::Int);
            break;
          default:
            panic("typeBinary: unexpected operator");
        }
    }

    static Type
    promote(const Type &t)
    {
        if (t.isPointer())
            return t;
        return Type::scalar(
            t.base == BaseTy::UInt ? BaseTy::UInt : BaseTy::Int);
    }

    static Type
    usualArith(const Type &a, const Type &b)
    {
        const bool u = a.base == BaseTy::UInt || b.base == BaseTy::UInt;
        return Type::scalar(u ? BaseTy::UInt : BaseTy::Int);
    }

    void
    requireLvalue(const Expr &e) const
    {
        const bool ok =
            (e.kind == ExprKind::Var && !e.ty.isArray()) ||
            e.kind == ExprKind::Index ||
            (e.kind == ExprKind::Unary && e.op == Tok::Star);
        if (!ok)
            throw CompileError(e.line, "assignment to non-lvalue");
    }

    /** The operand of a prefix operator or cast: one level deeper. */
    ExprPtr
    parseOperand()
    {
        Nested nested(*this);
        return parseUnary();
    }

    ExprPtr
    parseUnary()
    {
        int line = peek().line;
        if (accept(Tok::Plus))
            return parseOperand();
        if (at(Tok::Minus) || at(Tok::Tilde) || at(Tok::Bang) ||
            at(Tok::Star) || at(Tok::Amp) || at(Tok::PlusPlus) ||
            at(Tok::MinusMinus)) {
            Tok op = advance().kind;
            auto e = makeExpr(ExprKind::Unary);
            e->op = op;
            e->line = line;
            ExprPtr k = parseOperand();
            switch (op) {
              case Tok::Minus:
              case Tok::Tilde:
                e->ty = promote(k->ty);
                break;
              case Tok::Bang:
                e->ty = Type::scalar(BaseTy::Int);
                break;
              case Tok::Star: {
                Type kt = k->ty.isArray() && k->ty.dims.size() == 1
                    ? k->ty.decayed() : k->ty;
                if (!kt.isPointer() && kt.dims.empty())
                    throw CompileError(line,
                                       "dereference of non-pointer");
                e->ty = kt.subscripted();
                break;
              }
              case Tok::Amp:
                if (k->kind == ExprKind::Var && k->sym)
                    k->sym->addressTaken = true;
                e->ty = k->ty;
                if (e->ty.isArray())
                    e->ty = e->ty.decayed();
                else
                    ++e->ty.ptr;
                break;
              case Tok::PlusPlus:
              case Tok::MinusMinus:
                requireLvalue(*k);
                e->ty = k->ty;
                break;
              default:
                panic("unreachable");
            }
            adopt(*e, std::move(k));
            return e;
        }
        if (accept(Tok::KwSizeof)) {
            auto e = makeExpr(ExprKind::IntLit);
            e->line = line;
            expect(Tok::LParen);
            if (atTypeStart()) {
                Type t = parseDeclSpec();
                while (accept(Tok::Star))
                    ++t.ptr;
                e->ival = t.sizeInBytes();
            } else {
                ExprPtr k = parseExpr();
                e->ival = k->ty.sizeInBytes();
            }
            expect(Tok::RParen);
            e->ty = Type::scalar(BaseTy::UInt);
            return e;
        }
        // Cast: "(type" at expression position.
        if (at(Tok::LParen) && isTypeTok(peek(1).kind)) {
            advance();
            Type t = parseDeclSpec();
            while (accept(Tok::Star))
                ++t.ptr;
            expect(Tok::RParen);
            auto e = makeExpr(ExprKind::Cast);
            e->line = line;
            e->castTy = t;
            e->ty = t;
            adopt(*e, parseOperand());
            return e;
        }
        return parsePostfix();
    }

    static bool
    isTypeTok(Tok t)
    {
        switch (t) {
          case Tok::KwInt:
          case Tok::KwUnsigned:
          case Tok::KwChar:
          case Tok::KwShort:
          case Tok::KwVoid:
          case Tok::KwConst:
            return true;
          default:
            return false;
        }
    }

    ExprPtr
    parsePostfix()
    {
        ExprPtr e = parsePrimary();
        while (true) {
            if (accept(Tok::LBracket)) {
                auto idx = makeExpr(ExprKind::Index);
                idx->line = e->line;
                ExprPtr sub = parseExpr();
                expect(Tok::RBracket);
                if (!e->ty.isArray() && !e->ty.isPointer())
                    throw CompileError(idx->line,
                                       "subscript of non-array");
                idx->ty = e->ty.subscripted();
                adopt(*idx, std::move(e));
                adopt(*idx, std::move(sub));
                e = std::move(idx);
            } else if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
                Tok op = advance().kind;
                requireLvalue(*e);
                auto u = makeExpr(ExprKind::Unary);
                u->op = op;
                u->postfix = true;
                u->line = e->line;
                u->ty = e->ty;
                adopt(*u, std::move(e));
                e = std::move(u);
            } else {
                return e;
            }
        }
    }

    ExprPtr
    parsePrimary()
    {
        int line = peek().line;
        if (at(Tok::Number) || at(Tok::CharLit)) {
            const Token &t = advance();
            auto e = makeExpr(ExprKind::IntLit);
            e->line = line;
            e->ival = t.value;
            e->ty = Type::scalar(BaseTy::Int);
            return e;
        }
        if (at(Tok::StringLit)) {
            const Token &t = advance();
            auto e = makeExpr(ExprKind::StrLit);
            e->line = line;
            e->name = internString(t.text);
            e->ty = Type::scalar(BaseTy::Char, 1);
            return e;
        }
        if (accept(Tok::LParen)) {
            ExprPtr e = parseExpr();
            expect(Tok::RParen);
            return e;
        }
        if (at(Tok::Ident)) {
            const Token &t = advance();
            if (at(Tok::LParen))
                return parseCall(t.text, line);
            Symbol *sym = lookup(t.text);
            if (!sym)
                throw CompileError(line, strFormat(
                    "use of undeclared identifier '%s'",
                    t.text.c_str()));
            auto e = makeExpr(ExprKind::Var);
            e->line = line;
            e->name = t.text;
            e->sym = sym;
            e->ty = sym->type;
            return e;
        }
        errorHere(strFormat("unexpected %s in expression",
                            tokName(peek().kind).c_str()));
    }

    ExprPtr
    parseCall(const std::string &name, int line)
    {
        Symbol *sym = lookup(name);
        if (!sym || sym->kind != SymKind::Func)
            throw CompileError(line, strFormat(
                "call of undeclared function '%s'", name.c_str()));
        expect(Tok::LParen);
        auto e = makeExpr(ExprKind::Call);
        e->line = line;
        e->name = name;
        e->sym = sym;
        e->ty = sym->retType;
        if (!accept(Tok::RParen)) {
            do {
                adopt(*e, parseAssign());
            } while (accept(Tok::Comma));
            expect(Tok::RParen);
        }
        if (e->kids.size() != sym->paramTypes.size())
            throw CompileError(line, strFormat(
                "'%s' expects %zu argument(s), got %zu",
                name.c_str(), sym->paramTypes.size(),
                e->kids.size()));
        return e;
    }

    std::string
    internString(const std::string &bytes)
    {
        for (const StringLiteral &s : unit.strings)
            if (s.bytes == bytes)
                return s.label;
        StringLiteral lit;
        lit.label = strFormat(".Lstr%zu", unit.strings.size());
        lit.bytes = bytes;
        unit.strings.push_back(lit);
        return lit.label;
    }

    // ---- constant evaluation ----

    int64_t
    evalConst(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::IntLit:
            return e.ival;
          case ExprKind::Unary:
            switch (e.op) {
              case Tok::Minus: return -evalConst(*e.kids[0]);
              case Tok::Tilde: return ~evalConst(*e.kids[0]);
              case Tok::Bang: return !evalConst(*e.kids[0]);
              default: break;
            }
            break;
          case ExprKind::Cast:
            return evalConst(*e.kids[0]);
          case ExprKind::Binary: {
            int64_t a = evalConst(*e.kids[0]);
            int64_t b = evalConst(*e.kids[1]);
            int32_t x = static_cast<int32_t>(a);
            int32_t y = static_cast<int32_t>(b);
            switch (e.op) {
              case Tok::Plus: return x + y;
              case Tok::Minus: return x - y;
              case Tok::Star: return x * y;
              case Tok::Slash:
                if (y == 0)
                    throw CompileError(e.line,
                                       "division by zero in constant");
                return x / y;
              case Tok::Percent:
                if (y == 0)
                    throw CompileError(e.line,
                                       "division by zero in constant");
                return x % y;
              case Tok::Shl: return x << (y & 31);
              case Tok::Shr: return x >> (y & 31);
              case Tok::Amp: return x & y;
              case Tok::Pipe: return x | y;
              case Tok::Caret: return x ^ y;
              case Tok::Lt: return x < y;
              case Tok::Gt: return x > y;
              case Tok::Le: return x <= y;
              case Tok::Ge: return x >= y;
              case Tok::EqEq: return x == y;
              case Tok::NotEq: return x != y;
              case Tok::AndAnd: return x && y;
              case Tok::OrOr: return x || y;
              default: break;
            }
            break;
          }
          default:
            break;
        }
        throw CompileError(e.line, "expression is not constant");
    }

    std::vector<Token> toks;
    size_t pos = 0;
    int depth = 0; ///< active Nested levels
    TranslationUnit unit;
    std::vector<std::unordered_map<std::string, Symbol *>> scopes;
    int nextSymId = 0;
    Type currentRet;
};

} // namespace

TranslationUnit
parse(const std::string &source)
{
    return Parser(lex(source)).run();
}

} // namespace rissp::minic
