#include "lir/Parser.h"

#include "lir/Function.h"
#include "lir/IRBuilder.h"
#include "lir/LContext.h"
#include "lir/Printer.h"
#include "support/StringUtils.h"

#include <cctype>
#include <map>
#include <optional>
#include <vector>

namespace mha::lir {

namespace {

enum class Tok {
  Eof,
  Ident,      // bare word: define, add, i32, ...
  LocalName,  // %foo
  GlobalName, // @foo
  MetaName,   // !foo
  MetaString, // !"str"
  Int,        // 123, -4
  Float,      // 1.0, -2.5e3
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  HashBracket, // #[
  Comma,
  Equal,
  Star,
  Colon,
  String, // "..."
};

struct Token {
  Tok kind = Tok::Eof;
  std::string text;
  int64_t intValue = 0;
  double fpValue = 0;
  SrcLoc loc;
};

class Lexer {
public:
  Lexer(std::string_view text, DiagnosticEngine &diags)
      : text_(text), diags_(diags) {
    advance();
  }

  const Token &cur() const { return cur_; }

  Token take() {
    Token t = cur_;
    advance();
    return t;
  }

  void advance() {
    skipTrivia();
    cur_ = Token{};
    cur_.loc = loc();
    if (pos_ >= text_.size()) {
      cur_.kind = Tok::Eof;
      return;
    }
    char c = text_[pos_];
    switch (c) {
    case '(': cur_.kind = Tok::LParen; ++pos_; ++col_; return;
    case ')': cur_.kind = Tok::RParen; ++pos_; ++col_; return;
    case '{': cur_.kind = Tok::LBrace; ++pos_; ++col_; return;
    case '}': cur_.kind = Tok::RBrace; ++pos_; ++col_; return;
    case '[': cur_.kind = Tok::LBracket; ++pos_; ++col_; return;
    case ']': cur_.kind = Tok::RBracket; ++pos_; ++col_; return;
    case ',': cur_.kind = Tok::Comma; ++pos_; ++col_; return;
    case '=': cur_.kind = Tok::Equal; ++pos_; ++col_; return;
    case '*': cur_.kind = Tok::Star; ++pos_; ++col_; return;
    case ':': cur_.kind = Tok::Colon; ++pos_; ++col_; return;
    case '#':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '[') {
        cur_.kind = Tok::HashBracket;
        pos_ += 2;
        col_ += 2;
        return;
      }
      diags_.error("unexpected '#'", loc());
      ++pos_;
      return;
    case '"': {
      cur_.kind = Tok::String;
      ++pos_; ++col_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        cur_.text += text_[pos_];
        ++pos_; ++col_;
      }
      if (pos_ < text_.size()) { ++pos_; ++col_; }
      return;
    }
    case '%':
    case '@': {
      cur_.kind = c == '%' ? Tok::LocalName : Tok::GlobalName;
      ++pos_; ++col_;
      cur_.text = lexWord();
      return;
    }
    case '!': {
      ++pos_; ++col_;
      if (pos_ < text_.size() && text_[pos_] == '"') {
        ++pos_; ++col_;
        cur_.kind = Tok::MetaString;
        while (pos_ < text_.size() && text_[pos_] != '"') {
          cur_.text += text_[pos_];
          ++pos_; ++col_;
        }
        if (pos_ < text_.size()) { ++pos_; ++col_; }
        return;
      }
      if (pos_ < text_.size() && text_[pos_] == '{') {
        // `!{` -> report as MetaName with empty text + LBrace next.
        cur_.kind = Tok::MetaName;
        cur_.text = "";
        return;
      }
      cur_.kind = Tok::MetaName;
      cur_.text = lexWord();
      return;
    }
    default:
      break;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      lexNumber();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.') {
      cur_.kind = Tok::Ident;
      cur_.text = lexWord();
      return;
    }
    diags_.error(strfmt("unexpected character '%c'", c), loc());
    ++pos_; ++col_;
    advance();
  }

  SrcLoc loc() const { return {line_, col_}; }

  // Consumes the body of a `#[...]` attribute group at the character level,
  // splitting on commas outside parentheses. Attribute strings such as
  // "memory(argmem: readwrite)" contain characters that are not single
  // tokens, so they cannot be reassembled from the token stream.
  std::vector<std::string> takeAttributeGroup() {
    std::vector<std::string> attrs;
    std::string item;
    int depth = 0;
    bool closed = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ']' && depth == 0) {
        ++pos_; ++col_;
        closed = true;
        break;
      }
      if (c == '(')
        ++depth;
      else if (c == ')' && depth > 0)
        --depth;
      if (c == ',' && depth == 0) {
        attrs.push_back(item);
        item.clear();
      } else {
        item += c;
      }
      if (c == '\n') {
        ++line_; col_ = 1;
      } else {
        ++col_;
      }
      ++pos_;
    }
    if (!closed)
      diags_.error("unterminated attribute group", cur_.loc);
    attrs.push_back(item);
    std::vector<std::string> out;
    for (const std::string &raw : attrs) {
      std::string_view t = trim(raw);
      if (!t.empty())
        out.emplace_back(t);
    }
    advance();
    return out;
  }

private:
  std::string lexWord() {
    std::string word;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == '-') {
        word += c;
        ++pos_; ++col_;
      } else {
        break;
      }
    }
    return word;
  }

  void lexNumber() {
    size_t start = pos_;
    if (text_[pos_] == '-') { ++pos_; ++col_; }
    bool isFloat = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_; ++col_;
      } else if (c == '.' || c == 'e' || c == 'E' ||
                 ((c == '+' || c == '-') && isFloat &&
                  (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))) {
        isFloat = true;
        ++pos_; ++col_;
      } else {
        break;
      }
    }
    std::string word(text_.substr(start, pos_ - start));
    if (isFloat) {
      cur_.kind = Tok::Float;
      if (std::optional<double> v = parseDouble(word))
        cur_.fpValue = *v;
      else
        diags_.error(strfmt("invalid or out-of-range float literal '%s'",
                            word.c_str()),
                     cur_.loc);
    } else {
      cur_.kind = Tok::Int;
      if (std::optional<int64_t> v = parseInt(word))
        cur_.intValue = *v;
      else
        diags_.error(strfmt("invalid or out-of-range integer literal '%s'",
                            word.c_str()),
                     cur_.loc);
    }
    cur_.text = std::move(word);
  }

  void skipTrivia() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_; col_ = 1; ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_; ++col_;
      } else if (c == ';') {
        while (pos_ < text_.size() && text_[pos_] != '\n')
          ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  DiagnosticEngine &diags_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  Token cur_;
};

class Parser {
public:
  Parser(std::string_view text, LContext &ctx, DiagnosticEngine &diags)
      : lex_(text, diags), ctx_(ctx), diags_(diags) {}

  std::unique_ptr<Module> parse() {
    auto module = std::make_unique<Module>(ctx_, "parsed");
    module_ = module.get();
    // Textual IR is typed-pointer unless the flag says otherwise; keep the
    // context's pointer mode in sync so builder-created results (gep,
    // alloca) match the written types. Flags must precede functions.
    ctx_.emitOpaquePointers = false;
    module_->flags()["opaque-pointers"] = "false";
    while (lex_.cur().kind != Tok::Eof && !diags_.hadError()) {
      const Token &t = lex_.cur();
      if (t.kind == Tok::MetaName && t.text == "flag") {
        lex_.advance();
        Token key = expect(Tok::Ident, "flag name");
        expect(Tok::Equal, "'='");
        Token value = expect(Tok::String, "flag value");
        module_->flags()[key.text] = value.text;
        if (key.text == "opaque-pointers")
          ctx_.emitOpaquePointers = value.text == "true";
      } else if (t.kind == Tok::Ident && t.text == "define") {
        parseFunction(/*isDecl=*/false);
      } else if (t.kind == Tok::Ident && t.text == "declare") {
        parseFunction(/*isDecl=*/true);
      } else {
        diags_.error("expected 'define', 'declare' or '!flag'", t.loc);
        break;
      }
    }
    if (diags_.hadError())
      return nullptr;
    return module;
  }

private:
  Token expect(Tok kind, const char *what) {
    if (lex_.cur().kind != kind) {
      diags_.error(strfmt("expected %s, got '%s'", what,
                          lex_.cur().text.c_str()),
                   lex_.cur().loc);
      return Token{};
    }
    return lex_.take();
  }

  bool accept(Tok kind) {
    if (lex_.cur().kind == kind) {
      lex_.advance();
      return true;
    }
    return false;
  }

  bool acceptIdent(const char *word) {
    if (lex_.cur().kind == Tok::Ident && lex_.cur().text == word) {
      lex_.advance();
      return true;
    }
    return false;
  }

  // ---- Types ----
  Type *parseType() {
    Type *base = parseBaseType();
    while (base && accept(Tok::Star))
      base = ctx_.ptrTy(base);
    return base;
  }

  Type *parseBaseType() {
    const Token &t = lex_.cur();
    if (t.kind == Tok::Ident) {
      // Copy: advance() below invalidates the current token's text.
      const std::string w = t.text;
      if (w == "void") { lex_.advance(); return ctx_.voidTy(); }
      if (w == "float") { lex_.advance(); return ctx_.floatTy(); }
      if (w == "double") { lex_.advance(); return ctx_.doubleTy(); }
      if (w == "label") { lex_.advance(); return ctx_.labelTy(); }
      if (w == "ptr") { lex_.advance(); return ctx_.opaquePtrTy(); }
      if (w.size() > 1 && w[0] == 'i') {
        bool digits = true;
        for (char c : w.substr(1))
          digits &= std::isdigit(static_cast<unsigned char>(c)) != 0;
        if (digits) {
          lex_.advance();
          return ctx_.intTy(static_cast<unsigned>(std::stoul(w.substr(1))));
        }
      }
      diags_.error(strfmt("unknown type '%s'", w.c_str()), t.loc);
      return nullptr;
    }
    if (t.kind == Tok::LBracket) {
      lex_.advance();
      Token count = expect(Tok::Int, "array length");
      Token x = expect(Tok::Ident, "'x'");
      if (x.text != "x")
        diags_.error("expected 'x' in array type", x.loc);
      Type *elem = parseType();
      expect(Tok::RBracket, "']'");
      if (!elem)
        return nullptr;
      return ctx_.arrayTy(elem, static_cast<uint64_t>(count.intValue));
    }
    if (t.kind == Tok::LBrace) {
      lex_.advance();
      std::vector<Type *> fields;
      if (lex_.cur().kind != Tok::RBrace) {
        do {
          Type *f = parseType();
          if (!f)
            return nullptr;
          fields.push_back(f);
        } while (accept(Tok::Comma));
      }
      expect(Tok::RBrace, "'}'");
      return ctx_.structTy("", std::move(fields));
    }
    diags_.error("expected type", t.loc);
    return nullptr;
  }

  // ---- Metadata ----
  std::unique_ptr<MDNode> parseMDNode() {
    // Caller consumed `!name`; we are at `!{` (MetaName with empty text)
    // or directly at `{` depending on how it was lexed.
    if (lex_.cur().kind == Tok::MetaName && lex_.cur().text.empty())
      lex_.advance();
    expect(Tok::LBrace, "'{' of metadata node");
    auto node = std::make_unique<MDNode>();
    if (lex_.cur().kind != Tok::RBrace) {
      do {
        const Token &t = lex_.cur();
        if (t.kind == Tok::Ident && t.text == "i64") {
          lex_.advance();
          Token v = expect(Tok::Int, "metadata integer");
          node->addInt(v.intValue);
        } else if (t.kind == Tok::Ident && t.text == "f64") {
          lex_.advance();
          Token v = lex_.take();
          node->addFP(v.kind == Tok::Float ? v.fpValue
                                           : static_cast<double>(v.intValue));
        } else if (t.kind == Tok::MetaString) {
          node->addString(t.text);
          lex_.advance();
        } else if (t.kind == Tok::MetaName && t.text.empty()) {
          node->addNode(parseMDNode());
        } else {
          diags_.error("bad metadata operand", t.loc);
          break;
        }
      } while (accept(Tok::Comma));
    }
    expect(Tok::RBrace, "'}' of metadata node");
    return node;
  }

  /// Parses zero or more `, !key !{...}` attachments.
  void parseMDAttachments(MDMap &md) {
    while (lex_.cur().kind == Tok::Comma) {
      lex_.advance();
      Token key = expect(Tok::MetaName, "metadata key");
      md[key.text] = parseMDNode();
    }
  }

  // ---- Functions ----
  void parseFunction(bool isDecl) {
    lex_.advance(); // define/declare
    Type *retTy = parseType();
    Token name = expect(Tok::GlobalName, "function name");
    expect(Tok::LParen, "'('");

    struct Param {
      Type *type;
      std::string name;
      std::set<std::string> attrs;
      MDMap md;
    };
    std::vector<Param> params;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        Param p;
        p.type = parseType();
        if (!p.type)
          return;
        // attrs and metadata before the name.
        while (true) {
          if (lex_.cur().kind == Tok::Ident) {
            p.attrs.insert(lex_.take().text);
          } else if (lex_.cur().kind == Tok::MetaName &&
                     !lex_.cur().text.empty()) {
            Token key = lex_.take();
            p.md[key.text] = parseMDNode();
          } else {
            break;
          }
        }
        if (lex_.cur().kind == Tok::LocalName)
          p.name = lex_.take().text;
        params.push_back(std::move(p));
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");

    std::vector<Type *> paramTypes;
    for (const Param &p : params)
      paramTypes.push_back(p.type);
    Function *fn = module_->getFunction(name.text);
    if (!fn)
      fn = module_->createFunction(ctx_.fnTy(retTy, paramTypes), name.text);
    for (unsigned i = 0; i < params.size(); ++i) {
      fn->arg(i)->setName(params[i].name);
      fn->arg(i)->attrs() = params[i].attrs;
      for (auto &[k, v] : params[i].md)
        fn->arg(i)->metadata()[k] = std::move(v);
    }

    if (lex_.cur().kind == Tok::HashBracket) {
      for (std::string &attr : lex_.takeAttributeGroup())
        fn->attrs().insert(std::move(attr));
    }

    if (isDecl)
      return;

    expect(Tok::LBrace, "'{'");
    values_.clear();
    blocks_.clear();
    lastDefined_ = fn->end();
    forwardRefs_.clear();
    for (unsigned i = 0; i < fn->numArgs(); ++i)
      values_["%" + fn->arg(i)->name()] = fn->arg(i);

    BasicBlock *curBB = nullptr;
    IRBuilder builder(ctx_);
    while (lex_.cur().kind != Tok::RBrace && lex_.cur().kind != Tok::Eof &&
           !diags_.hadError()) {
      // Label?
      if (lex_.cur().kind == Tok::Ident || lex_.cur().kind == Tok::Int) {
        // Could be "name:" (label) or an instruction keyword.
        Token first = lex_.take();
        if (lex_.cur().kind == Tok::Colon) {
          lex_.advance();
          curBB = defineBlock(fn, first);
          if (!curBB)
            return;
          builder.setInsertPoint(curBB);
          continue;
        }
        if (!curBB) {
          diags_.error("instruction before first label", first.loc);
          return;
        }
        parseInstruction(fn, builder, /*resultName=*/"", first);
        continue;
      }
      if (lex_.cur().kind == Tok::LocalName) {
        Token result = lex_.take();
        expect(Tok::Equal, "'='");
        Token op = expect(Tok::Ident, "opcode");
        if (!curBB) {
          diags_.error("instruction before first label", result.loc);
          return;
        }
        parseInstruction(fn, builder, result.text, op);
        continue;
      }
      diags_.error(strfmt("unexpected token '%s' in function body",
                          lex_.cur().text.c_str()),
                   lex_.cur().loc);
      return;
    }
    expect(Tok::RBrace, "'}'");

    for (const auto &[name2, slot] : blocks_)
      if (!slot.defined)
        diags_.error(strfmt("use of undefined label %%%s", name2.c_str()));
    for (auto &[name2, placeholder] : forwardRefs_) {
      diags_.error(strfmt("use of undefined value %%%s", name2.c_str()));
      // Keep the IR destructible despite the error.
      placeholder->replaceAllUsesWith(ctx_.undef(placeholder->type()));
    }
    forwardRefs_.clear();
  }

  /// The block named `name`, created (at the end of the layout) when a
  /// branch or phi names it before its label.
  BasicBlock *getBlock(Function *fn, const std::string &name) {
    BlockSlot &slot = blocks_[name];
    if (!slot.block)
      slot.block = fn->createBlock(name);
    return slot.block;
  }

  /// Handles the label `label:`. Blocks are laid out in definition order,
  /// so printing a parsed function reproduces its text: a block a forward
  /// reference created early moves to just after the previous label's
  /// block. Returns null after diagnosing a redefinition.
  BasicBlock *defineBlock(Function *fn, const Token &label) {
    BlockSlot &slot = blocks_[label.text];
    if (slot.defined) {
      diags_.error(strfmt("redefinition of label %%%s", label.text.c_str()),
                   label.loc);
      return nullptr;
    }
    slot.defined = true;
    if (!slot.block)
      slot.block = fn->createBlock(label.text);
    BasicBlock *bb = slot.block;
    // No instruction precedes the first label, so nothing can reference a
    // block before the entry block exists: the entry is always first.
    if (lastDefined_ == fn->end()) {
      lastDefined_ = fn->begin();
      return bb;
    }
    if (std::next(lastDefined_)->get() != bb)
      fn->moveBlockAfter(bb, lastDefined_->get());
    ++lastDefined_;
    return bb;
  }

  /// Returns the value named `%name`, creating a placeholder when unseen.
  Value *getLocal(const std::string &name, Type *type) {
    auto it = values_.find("%" + name);
    if (it != values_.end())
      return it->second;
    auto placeholder = std::make_unique<Instruction>(Opcode::Freeze, type);
    placeholder->setName(name + ".fwd");
    Value *raw = placeholder.get();
    forwardRefs_[name] = std::move(placeholder);
    values_["%" + name] = raw;
    return raw;
  }

  void defineLocal(const std::string &name, Value *value) {
    auto fwd = forwardRefs_.find(name);
    if (fwd != forwardRefs_.end()) {
      fwd->second->replaceAllUsesWith(value);
      forwardRefs_.erase(fwd);
    }
    values_["%" + name] = value;
    value->setName(name);
  }

  /// Parses `<value>` where the expected type is known.
  Value *parseValueRef(Type *type) {
    const Token &t = lex_.cur();
    if (t.kind == Tok::LocalName) {
      std::string name = lex_.take().text;
      return getLocal(name, type);
    }
    if (t.kind == Tok::GlobalName) {
      std::string name = lex_.take().text;
      Function *fn = module_->getFunction(name);
      if (!fn)
        diags_.error(strfmt("unknown function @%s", name.c_str()), t.loc);
      return fn;
    }
    if (t.kind == Tok::Int) {
      Token v = lex_.take();
      if (type->isFloatingPoint())
        return ctx_.constFP(type, static_cast<double>(v.intValue));
      if (auto *it = dyn_cast<IntType>(type))
        return ctx_.constInt(it, v.intValue);
      diags_.error("integer literal for non-integer type", v.loc);
      return nullptr;
    }
    if (t.kind == Tok::Float) {
      Token v = lex_.take();
      if (!type->isFloatingPoint()) {
        diags_.error("float literal for non-float type", v.loc);
        return nullptr;
      }
      return ctx_.constFP(type, v.fpValue);
    }
    if (t.kind == Tok::Ident && t.text == "undef") {
      lex_.advance();
      return ctx_.undef(type);
    }
    diags_.error(strfmt("expected value, got '%s'", t.text.c_str()), t.loc);
    return nullptr;
  }

  /// Parses `<type> <value>`.
  Value *parseTypedValue() {
    Type *type = parseType();
    if (!type)
      return nullptr;
    return parseValueRef(type);
  }

  void parseInstruction(Function *fn, IRBuilder &builder,
                        const std::string &resultName, const Token &opTok) {
    const std::string &op = opTok.text;
    Instruction *inst = nullptr;

    static const std::map<std::string, Opcode> binops = {
        {"add", Opcode::Add},   {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},   {"sdiv", Opcode::SDiv},
        {"udiv", Opcode::UDiv}, {"srem", Opcode::SRem},
        {"urem", Opcode::URem}, {"and", Opcode::And},
        {"or", Opcode::Or},     {"xor", Opcode::Xor},
        {"shl", Opcode::Shl},   {"lshr", Opcode::LShr},
        {"ashr", Opcode::AShr}, {"fadd", Opcode::FAdd},
        {"fsub", Opcode::FSub}, {"fmul", Opcode::FMul},
        {"fdiv", Opcode::FDiv}};
    static const std::map<std::string, Opcode> casts = {
        {"trunc", Opcode::Trunc},     {"zext", Opcode::ZExt},
        {"sext", Opcode::SExt},       {"fptrunc", Opcode::FPTrunc},
        {"fpext", Opcode::FPExt},     {"sitofp", Opcode::SIToFP},
        {"uitofp", Opcode::UIToFP},   {"fptosi", Opcode::FPToSI},
        {"bitcast", Opcode::Bitcast}, {"ptrtoint", Opcode::PtrToInt},
        {"inttoptr", Opcode::IntToPtr}};
    static const std::map<std::string, CmpPred> preds = {
        {"eq", CmpPred::EQ},   {"ne", CmpPred::NE},   {"slt", CmpPred::SLT},
        {"sle", CmpPred::SLE}, {"sgt", CmpPred::SGT}, {"sge", CmpPred::SGE},
        {"ult", CmpPred::ULT}, {"ule", CmpPred::ULE}, {"ugt", CmpPred::UGT},
        {"uge", CmpPred::UGE}, {"oeq", CmpPred::OEQ}, {"one", CmpPred::ONE},
        {"olt", CmpPred::OLT}, {"ole", CmpPred::OLE}, {"ogt", CmpPred::OGT},
        {"oge", CmpPred::OGE}};

    if (auto it = binops.find(op); it != binops.end()) {
      Type *type = parseType();
      Value *lhs = parseValueRef(type);
      expect(Tok::Comma, "','");
      Value *rhs = parseValueRef(type);
      if (lhs && rhs)
        inst = builder.createBinOp(it->second, lhs, rhs);
    } else if (auto ct = casts.find(op); ct != casts.end()) {
      Value *v = parseTypedValue();
      if (!acceptIdent("to"))
        diags_.error("expected 'to' in cast", lex_.cur().loc);
      Type *to = parseType();
      if (v && to)
        inst = builder.createCast(ct->second, v, to);
    } else if (op == "icmp" || op == "fcmp") {
      Token predTok = expect(Tok::Ident, "predicate");
      auto pit = preds.find(predTok.text);
      if (pit == preds.end()) {
        diags_.error("unknown predicate", predTok.loc);
        return;
      }
      Type *type = parseType();
      Value *lhs = parseValueRef(type);
      expect(Tok::Comma, "','");
      Value *rhs = parseValueRef(type);
      if (lhs && rhs)
        inst = op == "icmp" ? builder.createICmp(pit->second, lhs, rhs)
                            : builder.createFCmp(pit->second, lhs, rhs);
    } else if (op == "load") {
      Type *type = parseType();
      expect(Tok::Comma, "','");
      Value *ptr = parseTypedValue();
      if (type && ptr)
        inst = builder.createLoad(type, ptr);
    } else if (op == "store") {
      Value *value = parseTypedValue();
      expect(Tok::Comma, "','");
      Value *ptr = parseTypedValue();
      if (value && ptr)
        inst = builder.createStore(value, ptr);
    } else if (op == "getelementptr") {
      Type *srcTy = parseType();
      expect(Tok::Comma, "','");
      Value *base = parseTypedValue();
      std::vector<Value *> indices;
      MDMap pendingMD;
      while (accept(Tok::Comma)) {
        if (lex_.cur().kind == Tok::MetaName) {
          Token key = lex_.take();
          pendingMD[key.text] = parseMDNode();
          parseMDAttachments(pendingMD);
          break;
        }
        Value *idx = parseTypedValue();
        if (!idx)
          return;
        indices.push_back(idx);
      }
      if (srcTy && base) {
        inst = builder.createGEP(srcTy, base, std::move(indices));
        inst->metadata() = std::move(pendingMD);
      }
    } else if (op == "alloca") {
      Type *type = parseType();
      if (type)
        inst = builder.createAlloca(type);
    } else if (op == "phi") {
      Type *type = parseType();
      inst = builder.createPhi(type);
      do {
        if (lex_.cur().kind == Tok::MetaName) {
          Token key = lex_.take();
          inst->metadata()[key.text] = parseMDNode();
          parseMDAttachments(inst->metadata());
          break;
        }
        expect(Tok::LBracket, "'['");
        Value *v = parseValueRef(type);
        expect(Tok::Comma, "','");
        Token bbName = expect(Tok::LocalName, "incoming block");
        expect(Tok::RBracket, "']'");
        if (v)
          inst->addIncoming(v, getBlock(fn, bbName.text));
      } while (accept(Tok::Comma));
    } else if (op == "select") {
      Value *cond = parseTypedValue();
      expect(Tok::Comma, "','");
      Value *tv = parseTypedValue();
      expect(Tok::Comma, "','");
      Value *fv = parseTypedValue();
      if (cond && tv && fv)
        inst = builder.createSelect(cond, tv, fv);
    } else if (op == "freeze") {
      Value *v = parseTypedValue();
      if (v)
        inst = builder.createFreeze(v);
    } else if (op == "fneg") {
      Value *v = parseTypedValue();
      if (v)
        inst = builder.createFNeg(v);
    } else if (op == "call") {
      Type *retTy = parseType();
      Token callee = expect(Tok::GlobalName, "callee");
      expect(Tok::LParen, "'('");
      std::vector<Value *> args;
      if (lex_.cur().kind != Tok::RParen) {
        do {
          Value *a = parseTypedValue();
          if (!a)
            return;
          args.push_back(a);
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')'");
      Function *calleeFn = module_->getFunction(callee.text);
      if (!calleeFn) {
        // Implicit declaration from the call signature.
        std::vector<Type *> argTypes;
        for (Value *a : args)
          argTypes.push_back(a->type());
        calleeFn = module_->createFunction(ctx_.fnTy(retTy, argTypes),
                                           callee.text);
      }
      inst = builder.createCall(calleeFn, std::move(args));
    } else if (op == "ret") {
      if (acceptIdent("void")) {
        inst = builder.createRet();
      } else {
        Value *v = parseTypedValue();
        inst = builder.createRet(v);
      }
    } else if (op == "br") {
      if (acceptIdent("label")) {
        Token dest = expect(Tok::LocalName, "branch target");
        inst = builder.createBr(getBlock(fn, dest.text));
      } else {
        Value *cond = parseTypedValue();
        expect(Tok::Comma, "','");
        acceptIdent("label");
        Token t = expect(Tok::LocalName, "true target");
        expect(Tok::Comma, "','");
        acceptIdent("label");
        Token f = expect(Tok::LocalName, "false target");
        if (cond)
          inst = builder.createCondBr(cond, getBlock(fn, t.text),
                                      getBlock(fn, f.text));
      }
    } else if (op == "unreachable") {
      inst = builder.createUnreachable();
    } else {
      diags_.error(strfmt("unknown instruction '%s'", op.c_str()), opTok.loc);
      return;
    }

    if (!inst)
      return;
    parseMDAttachments(inst->metadata());
    if (!resultName.empty())
      defineLocal(resultName, inst);
  }

  Lexer lex_;
  LContext &ctx_;
  DiagnosticEngine &diags_;
  Module *module_ = nullptr;
  std::map<std::string, Value *> values_;
  struct BlockSlot {
    BasicBlock *block = nullptr;
    bool defined = false; // its label has been seen
  };
  std::map<std::string, BlockSlot> blocks_;
  Function::iterator lastDefined_; // the last label's block in the layout
  std::map<std::string, std::unique_ptr<Instruction>> forwardRefs_;
};

} // namespace

std::unique_ptr<Module> parseModule(std::string_view text, LContext &ctx,
                                    DiagnosticEngine &diags) {
  return Parser(text, ctx, diags).parse();
}

} // namespace mha::lir
