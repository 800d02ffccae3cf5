#include "jvm/type.h"

namespace s2fa::jvm {

struct Type::Ref {
  Type element;            // for arrays
  std::string class_name;  // for classes
};

Type Type::Array(const Type& element) {
  S2FA_REQUIRE(!element.is_void(), "array of void is not a type");
  Type t(TypeKind::kArray);
  t.ref_ = std::make_shared<const Ref>(Ref{element, {}});
  return t;
}

Type Type::Class(std::string name) {
  S2FA_REQUIRE(!name.empty(), "class type needs a name");
  Type t(TypeKind::kClass);
  t.ref_ = std::make_shared<const Ref>(Ref{Type(), std::move(name)});
  return t;
}

const Type& Type::element() const {
  S2FA_REQUIRE(is_array(), "element() on non-array type " << ToString());
  return ref_->element;
}

const std::string& Type::class_name() const {
  S2FA_REQUIRE(is_class(), "class_name() on non-class type " << ToString());
  return ref_->class_name;
}

int Type::bit_width() const {
  switch (kind_) {
    case TypeKind::kBoolean:
    case TypeKind::kByte:
      return 8;
    case TypeKind::kChar:
    case TypeKind::kShort:
      return 16;
    case TypeKind::kInt:
    case TypeKind::kFloat:
      return 32;
    case TypeKind::kLong:
    case TypeKind::kDouble:
      return 64;
    default:
      throw InvalidArgument("bit_width() on non-primitive type " + ToString());
  }
}

std::string Type::Descriptor() const {
  switch (kind_) {
    case TypeKind::kVoid: return "V";
    case TypeKind::kBoolean: return "Z";
    case TypeKind::kByte: return "B";
    case TypeKind::kChar: return "C";
    case TypeKind::kShort: return "S";
    case TypeKind::kInt: return "I";
    case TypeKind::kLong: return "J";
    case TypeKind::kFloat: return "F";
    case TypeKind::kDouble: return "D";
    case TypeKind::kArray: return "[" + ref_->element.Descriptor();
    case TypeKind::kClass: return "L" + ref_->class_name + ";";
  }
  S2FA_UNREACHABLE("bad type kind");
}

std::string Type::ToString() const {
  switch (kind_) {
    case TypeKind::kVoid: return "void";
    case TypeKind::kBoolean: return "boolean";
    case TypeKind::kByte: return "byte";
    case TypeKind::kChar: return "char";
    case TypeKind::kShort: return "short";
    case TypeKind::kInt: return "int";
    case TypeKind::kLong: return "long";
    case TypeKind::kFloat: return "float";
    case TypeKind::kDouble: return "double";
    case TypeKind::kArray: return ref_->element.ToString() + "[]";
    case TypeKind::kClass: return ref_->class_name;
  }
  S2FA_UNREACHABLE("bad type kind");
}

bool operator==(const Type& a, const Type& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case TypeKind::kArray: return a.ref_->element == b.ref_->element;
    case TypeKind::kClass: return a.ref_->class_name == b.ref_->class_name;
    default: return true;
  }
}

namespace {

Type ParseDescriptorAt(const std::string& d, std::size_t& pos) {
  if (pos >= d.size()) throw MalformedInput("truncated descriptor: " + d);
  switch (d[pos]) {
    case 'V': ++pos; return Type::Void();
    case 'Z': ++pos; return Type::Boolean();
    case 'B': ++pos; return Type::Byte();
    case 'C': ++pos; return Type::Char();
    case 'S': ++pos; return Type::Short();
    case 'I': ++pos; return Type::Int();
    case 'J': ++pos; return Type::Long();
    case 'F': ++pos; return Type::Float();
    case 'D': ++pos; return Type::Double();
    case '[': {
      ++pos;
      return Type::Array(ParseDescriptorAt(d, pos));
    }
    case 'L': {
      std::size_t end = d.find(';', pos);
      if (end == std::string::npos) {
        throw MalformedInput("unterminated class descriptor: " + d);
      }
      std::string name = d.substr(pos + 1, end - pos - 1);
      pos = end + 1;
      return Type::Class(std::move(name));
    }
    default:
      throw MalformedInput("bad descriptor char '" + std::string(1, d[pos]) +
                           "' in " + d);
  }
}

}  // namespace

Type ParseDescriptor(const std::string& descriptor) {
  std::size_t pos = 0;
  Type t = ParseDescriptorAt(descriptor, pos);
  if (pos != descriptor.size()) {
    throw MalformedInput("trailing characters in descriptor: " + descriptor);
  }
  return t;
}

std::string MethodSignature::Descriptor() const {
  std::string out = "(";
  for (const auto& p : params) out += p.Descriptor();
  out += ")" + ret.Descriptor();
  return out;
}

}  // namespace s2fa::jvm
