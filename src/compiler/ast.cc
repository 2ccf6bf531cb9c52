#include "compiler/ast.hh"

#include "util/logging.hh"

namespace rissp::minic
{

unsigned
baseSize(BaseTy b)
{
    switch (b) {
      case BaseTy::Void: return 0;
      case BaseTy::Int:
      case BaseTy::UInt: return 4;
      case BaseTy::Short:
      case BaseTy::UShort: return 2;
      case BaseTy::Char:
      case BaseTy::UChar: return 1;
    }
    return 4;
}

bool
baseUnsigned(BaseTy b)
{
    return b == BaseTy::UInt || b == BaseTy::UChar ||
        b == BaseTy::UShort;
}

unsigned
Type::scalarSize() const
{
    if (ptr > 0)
        return 4;
    return baseSize(base);
}

unsigned
Type::sizeInBytes() const
{
    unsigned n = scalarSize();
    for (int d : dims)
        n *= static_cast<unsigned>(d);
    return n;
}

bool
Type::isUnsignedTy() const
{
    if (ptr > 0)
        return true; // pointers compare unsigned
    return baseUnsigned(base);
}

Type
Type::subscripted() const
{
    Type t = *this;
    if (!t.dims.empty()) {
        t.dims.erase(t.dims.begin());
        return t;
    }
    if (t.ptr > 0) {
        --t.ptr;
        return t;
    }
    panic("subscripted() on non-indexable type");
}

unsigned
Type::strideBytes() const
{
    return subscripted().sizeInBytes();
}

Type
Type::decayed() const
{
    if (!isArray())
        return *this;
    // Only 1-D arrays decay to pointers here; multi-dimensional
    // arrays are indexed in place (the parser rejects passing them by
    // value, which MiniC does not support).
    if (dims.size() != 1)
        panic("decayed() on multi-dimensional array");
    // The element type of a 1-D array is the array with no dims.
    Type t = *this;
    t.dims.clear();
    ++t.ptr;
    return t;
}

} // namespace rissp::minic
