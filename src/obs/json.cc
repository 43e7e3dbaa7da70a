#include "src/obs/json.h"

#include <cmath>
#include <cstdio>

namespace xfair::obs {
namespace {

void AppendQuoted(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

/// `v` printed by `format` at `precision`; null when not finite.
Json Printed(const char* format, int precision, double v) {
  if (!std::isfinite(v)) return Json::Raw("null");
  std::string out(std::snprintf(nullptr, 0, format, precision, v), '\0');
  std::snprintf(out.data(), out.size() + 1, format, precision, v);
  return Json::Raw(std::move(out));
}

}  // namespace

Json::Json(const std::string& s) : kind_(Kind::kToken) {
  AppendQuoted(&token_, s);
}

Json Json::Number(double v) { return Printed("%.*g", 12, v); }

Json Json::Fixed(double v, int decimals) {
  return Printed("%.*f", decimals, v);
}

Json Json::Raw(std::string document) {
  Json j;
  j.kind_ = Kind::kToken;
  j.token_ = std::move(document);
  return j;
}

std::string Json::Dump(Layout layout) const {
  std::string out;
  DumpTo(&out, layout == Layout::kPretty ? 2 : 0, 0);
  return out;
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  const auto newline = [&](int level) {  // Nothing at all in kCompact.
    if (indent > 0) out->append(1, '\n').append(indent * level, ' ');
  };
  if (kind_ == Kind::kToken) {  // Re-indents a nested Raw document.
    for (char c : token_) c == '\n' ? newline(depth) : out->push_back(c);
    return;
  }
  const bool object = kind_ == Kind::kObject;
  *out += object ? '{' : '[';
  bool first = true;
  const auto member = [&](const std::string* key, const Json& value) {
    if (!first) *out += ',';
    first = false;
    newline(depth + 1);
    if (key != nullptr) {
      AppendQuoted(out, *key);
      *out += indent == 0 ? ":" : ": ";
    }
    value.DumpTo(out, indent, depth + 1);
  };
  for (const auto& [key, value] : members_) member(&key, value);
  for (const Json& item : items_) member(nullptr, item);
  if (!first) newline(depth);
  *out += object ? '}' : ']';
}

}  // namespace xfair::obs
