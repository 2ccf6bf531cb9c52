/**
 * @file
 * MiniC abstract syntax tree, types and symbols.
 *
 * MiniC covers the C subset the paper's workloads need: 32-bit
 * integer arithmetic with char/short widths, pointers, 1-D/2-D
 * arrays, functions, and full statement-level control flow. The
 * parser performs symbol resolution and typing as it goes (C's
 * declare-before-use makes that natural), so the tree it produces is
 * fully annotated.
 */

#ifndef RISSP_COMPILER_AST_HH
#define RISSP_COMPILER_AST_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/token.hh"

namespace rissp::minic
{

/** Scalar base types. */
enum class BaseTy : uint8_t
{
    Void, Int, UInt, Char, UChar, Short, UShort
};

/** A MiniC type: base scalar, pointer depth, optional array dims. */
struct Type
{
    BaseTy base = BaseTy::Int;
    int ptr = 0;                ///< pointer indirection depth
    std::vector<int> dims;      ///< array dimensions, outermost first

    bool isVoid() const { return base == BaseTy::Void && ptr == 0; }
    bool isArray() const { return !dims.empty(); }
    bool isPointer() const { return ptr > 0 && dims.empty(); }

    /** Size of the scalar element (load/store width). */
    unsigned scalarSize() const;

    /** Total object size in bytes (arrays included). */
    unsigned sizeInBytes() const;

    /** Unsigned semantics for compares/shifts/div. */
    bool isUnsignedTy() const;

    /** Type after one [] subscript (drops a dim or a ptr level). */
    Type subscripted() const;

    /** Type of the element a pointer/array step moves over. */
    unsigned strideBytes() const;

    /** Decayed type for expression use (array -> pointer). */
    Type decayed() const;

    bool operator==(const Type &other) const = default;

    static Type
    scalar(BaseTy b, int ptr_depth = 0)
    {
        Type t;
        t.base = b;
        t.ptr = ptr_depth;
        return t;
    }
};

/** What a name refers to. */
enum class SymKind : uint8_t { Global, Local, Param, Func };

/** A declared symbol. */
struct Symbol
{
    std::string name;
    Type type;
    SymKind kind = SymKind::Local;
    int id = 0;               ///< unique per function (locals/params)
    bool addressTaken = false;///< &x or array: lives in memory
    // functions only:
    Type retType;
    std::vector<Type> paramTypes;
    bool defined = false;
};

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

/** Expression node kinds. */
enum class ExprKind : uint8_t
{
    IntLit,    ///< ival
    StrLit,    ///< name = assembler label, text in unit string table
    Var,       ///< sym
    Unary,     ///< op in {-, ~, !, *, &, ++, --}, kids[0]
    Binary,    ///< op arithmetic/relational/logical, kids[0], kids[1]
    Assign,    ///< op in {=, +=, ...}, kids[0] = lhs, kids[1] = rhs
    Cond,      ///< kids[0] ? kids[1] : kids[2]
    Call,      ///< name + kids = args, sym = callee
    Index,     ///< kids[0][kids[1]]
    Cast,      ///< (castTy)kids[0]
};

/** One expression node (annotated with its type by the parser). */
struct Expr
{
    ExprKind kind;
    int line = 0;
    Tok op = Tok::End;       ///< operator for Unary/Binary/Assign
    bool postfix = false;    ///< x++ / x-- vs ++x / --x
    int64_t ival = 0;        ///< IntLit value
    std::string name;        ///< Var/Call/StrLit
    Type castTy;             ///< Cast target
    std::vector<ExprPtr> kids;
    Type ty;                 ///< result type
    Symbol *sym = nullptr;   ///< Var/Call binding
    int height = 1;          ///< levels in this subtree (leaf = 1)
};

/** One local declaration inside a Decl statement. */
struct DeclVar
{
    std::string name;
    Type type;
    ExprPtr init;                  ///< scalar initializer (may be null)
    std::vector<int64_t> arrayInit;///< brace/string initializer
    bool hasArrayInit = false;
    Symbol *sym = nullptr;
};

/** Statement node kinds. */
enum class StmtKind : uint8_t
{
    Expr, Decl, If, While, DoWhile, For, Return, Break, Continue,
    Block, Empty
};

/** One statement node. */
struct Stmt
{
    StmtKind kind;
    int line = 0;
    ExprPtr expr;            ///< Expr/Return value; If/While/Do cond
    ExprPtr stepExpr;        ///< For step
    StmtPtr init;            ///< For init (Decl or Expr stmt)
    StmtPtr body;            ///< loop body / If then
    StmtPtr elseBody;        ///< If else
    std::vector<StmtPtr> stmts; ///< Block
    std::vector<DeclVar> decls; ///< Decl
};

/** A parsed function definition. */
struct Function
{
    std::string name;
    Type retType;
    std::vector<DeclVar> params;
    StmtPtr body;
    Symbol *sym = nullptr;
    int line = 0;
};

/** A global variable with its (constant) initializer bytes. */
struct Global
{
    std::string name;
    Type type;
    std::vector<int64_t> init;  ///< element values (empty = zero)
    bool isConst = false;
    Symbol *sym = nullptr;
    int line = 0;
};

/** A deduplicated string literal placed in .data. */
struct StringLiteral
{
    std::string label;
    std::string bytes;   ///< NUL added at emission
};

/** Whole translation unit. */
struct TranslationUnit
{
    std::vector<Function> functions;
    std::vector<Global> globals;
    std::vector<StringLiteral> strings;
    // Owned symbols (stable addresses for Expr::sym).
    std::vector<std::unique_ptr<Symbol>> symbols;
};

/** Size helpers shared across the compiler. */
unsigned baseSize(BaseTy b);
bool baseUnsigned(BaseTy b);

} // namespace rissp::minic

#endif // RISSP_COMPILER_AST_HH
